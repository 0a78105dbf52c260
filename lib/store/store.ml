type kind = Cunit | Lifted | Image

let kind_name = function
  | Cunit -> "cunit"
  | Lifted -> "lifted"
  | Image -> "image"

let all_kinds = [ Cunit; Lifted; Image ]

let digest_string s = Digest.to_hex (Digest.string s)
let digest_bytes b = Digest.to_hex (Digest.bytes b)

type counters = {
  mem_hits : int;
  mem_misses : int;
  disk_hits : int;
  disk_misses : int;
  evictions : int;
  corruptions : int;
  puts : int;
}

let counters_zero =
  { mem_hits = 0;
    mem_misses = 0;
    disk_hits = 0;
    disk_misses = 0;
    evictions = 0;
    corruptions = 0;
    puts = 0 }

let counters_diff a b =
  { mem_hits = a.mem_hits - b.mem_hits;
    mem_misses = a.mem_misses - b.mem_misses;
    disk_hits = a.disk_hits - b.disk_hits;
    disk_misses = a.disk_misses - b.disk_misses;
    evictions = a.evictions - b.evictions;
    corruptions = a.corruptions - b.corruptions;
    puts = a.puts - b.puts }

let counters_add a b =
  { mem_hits = a.mem_hits + b.mem_hits;
    mem_misses = a.mem_misses + b.mem_misses;
    disk_hits = a.disk_hits + b.disk_hits;
    disk_misses = a.disk_misses + b.disk_misses;
    evictions = a.evictions + b.evictions;
    corruptions = a.corruptions + b.corruptions;
    puts = a.puts + b.puts }

let counters_to_alist c =
  [ ("mem_hits", c.mem_hits);
    ("mem_misses", c.mem_misses);
    ("disk_hits", c.disk_hits);
    ("disk_misses", c.disk_misses);
    ("evictions", c.evictions);
    ("corruptions", c.corruptions);
    ("puts", c.puts) ]

type mut_counters = {
  mutable m_mem_hits : int;
  mutable m_mem_misses : int;
  mutable m_disk_hits : int;
  mutable m_disk_misses : int;
  mutable m_evictions : int;
  mutable m_corruptions : int;
  mutable m_puts : int;
}

let mut_zero () =
  { m_mem_hits = 0;
    m_mem_misses = 0;
    m_disk_hits = 0;
    m_disk_misses = 0;
    m_evictions = 0;
    m_corruptions = 0;
    m_puts = 0 }

let snapshot m =
  { mem_hits = m.m_mem_hits;
    mem_misses = m.m_mem_misses;
    disk_hits = m.m_disk_hits;
    disk_misses = m.m_disk_misses;
    evictions = m.m_evictions;
    corruptions = m.m_corruptions;
    puts = m.m_puts }

type entry = { value : string; mutable tick : int }

type t = {
  t_dir : string option;
  mem_capacity : int;
  lock : Mutex.t;
  table : (kind * string, entry) Hashtbl.t;
  mutable bytes : int;
  mutable clock : int;
  (* every attempted disk open, read or write — the "did we touch the
     filesystem at all?" probe behind the daemon's in-memory guarantee *)
  mutable m_disk_ops : int;
  cn : (kind * mut_counters) list;  (* one slot per kind *)
}

let default_dir () =
  match Sys.getenv_opt "OMLT_STORE" with
  | Some "" | Some "none" -> None
  | Some d -> Some d
  | None -> Some "_omstore"

let create ?dir ?(mem_capacity = 256 * 1024 * 1024) () =
  { t_dir = (match dir with Some d -> d | None -> default_dir ());
    mem_capacity;
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    bytes = 0;
    clock = 0;
    m_disk_ops = 0;
    cn = List.map (fun k -> (k, mut_zero ())) all_kinds }

let in_memory () = create ~dir:None ()

let dir t = t.t_dir

let cnt t kind = List.assoc kind t.cn

(* --- the on-disk layer ---

   One file per entry at <dir>/v1/<kind>/<key[0..1]>/<key>, holding the
   payload's own digest on the first line and the payload after it. The
   digest makes corruption detectable; the v1 path segment leaves room to
   change the format without misreading old caches. *)

let entry_path dir kind key =
  let prefix = if String.length key >= 2 then String.sub key 0 2 else "xx" in
  Filename.concat dir
    (Filename.concat "v1" (Filename.concat (kind_name kind) (Filename.concat prefix key)))

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error ((Unix.EEXIST | Unix.EISDIR), _, _) -> ()
  end

let disk_write t kind ~key value =
  match t.t_dir with
  | None -> ()
  | Some dir -> (
      t.m_disk_ops <- t.m_disk_ops + 1;
      try
        let path = entry_path dir kind key in
        mkdir_p (Filename.dirname path);
        let tmp =
          Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) t.clock
        in
        let oc = open_out_bin tmp in
        (try
           output_string oc (digest_string value);
           output_char oc '\n';
           output_string oc value;
           close_out oc
         with e -> close_out_noerr oc; raise e);
        (* atomic publish: readers see the old entry or the new one,
           never a torn write *)
        Sys.rename tmp path
      with Sys_error _ | Unix.Unix_error _ -> ())

let disk_read t kind ~key =
  match t.t_dir with
  | None -> None
  | Some dir -> (
      t.m_disk_ops <- t.m_disk_ops + 1;
      let path = entry_path dir kind key in
      match
        let ic = open_in_bin path in
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        let len = in_channel_length ic in
        let digest = input_line ic in
        let payload_len = len - String.length digest - 1 in
        if payload_len < 0 then None
        else Some (digest, really_input_string ic payload_len)
      with
      | exception (Sys_error _ | End_of_file | Unix.Unix_error _) -> None
      | None -> None
      | Some (digest, payload) ->
          if String.equal digest (digest_string payload) then Some payload
          else begin
            (* corrupted: evict so the next reader recomputes cleanly *)
            (cnt t kind).m_corruptions <- (cnt t kind).m_corruptions + 1;
            (try Sys.remove path with Sys_error _ -> ());
            None
          end)

(* --- the memory layer --- *)

let touch t e =
  t.clock <- t.clock + 1;
  e.tick <- t.clock

let evict_until_fits t kind =
  while t.bytes > t.mem_capacity && Hashtbl.length t.table > 0 do
    let victim = ref None in
    Hashtbl.iter
      (fun k (e : entry) ->
        match !victim with
        | Some (_, v) when v.tick <= e.tick -> ()
        | _ -> victim := Some (k, e))
      t.table;
    match !victim with
    | None -> ()
    | Some (k, e) ->
        Hashtbl.remove t.table k;
        t.bytes <- t.bytes - String.length e.value;
        (cnt t kind).m_evictions <- (cnt t kind).m_evictions + 1
  done

let mem_insert t kind ~key value =
  (match Hashtbl.find_opt t.table (kind, key) with
  | Some old ->
      Hashtbl.remove t.table (kind, key);
      t.bytes <- t.bytes - String.length old.value
  | None -> ());
  let e = { value; tick = 0 } in
  touch t e;
  Hashtbl.replace t.table (kind, key) e;
  t.bytes <- t.bytes + String.length value;
  evict_until_fits t kind

let put t kind ~key value =
  Mutex.protect t.lock @@ fun () ->
  (cnt t kind).m_puts <- (cnt t kind).m_puts + 1;
  mem_insert t kind ~key value;
  disk_write t kind ~key value

let get t kind ~key =
  Mutex.protect t.lock @@ fun () ->
  let c = cnt t kind in
  match Hashtbl.find_opt t.table (kind, key) with
  | Some e ->
      c.m_mem_hits <- c.m_mem_hits + 1;
      touch t e;
      Some e.value
  | None -> (
      c.m_mem_misses <- c.m_mem_misses + 1;
      match disk_read t kind ~key with
      | Some value ->
          c.m_disk_hits <- c.m_disk_hits + 1;
          mem_insert t kind ~key value;
          Some value
      | None ->
          c.m_disk_misses <- c.m_disk_misses + 1;
          None)

let counters t kind = Mutex.protect t.lock @@ fun () -> snapshot (cnt t kind)

let counters_total t =
  Mutex.protect t.lock @@ fun () ->
  List.fold_left (fun acc (_, m) -> counters_add acc (snapshot m)) counters_zero
    t.cn

let disk_ops t = Mutex.protect t.lock @@ fun () -> t.m_disk_ops

let mem_entries t = Mutex.protect t.lock @@ fun () -> Hashtbl.length t.table
let mem_bytes t = Mutex.protect t.lock @@ fun () -> t.bytes

(* --- typed artifact codecs --- *)

module Codec = struct
  let cunit_to_string u = Bytes.unsafe_to_string (Objfile.Obj_io.write u)

  let cunit_of_string s =
    Objfile.Obj_io.read (Bytes.unsafe_of_string s)

  let cunit_digest u = digest_bytes (Objfile.Obj_io.write u)

  (* Marshal is safe here only while a payload is unmarshalled at the
     type it was written at. The store verifies the content digest
     before handing bytes back, so damaged bytes fail into [Error] below;
     but a well-formed payload of another shape is undefined behaviour,
     not an [Error]. A key must therefore change whenever its payload
     type does: lifts are keyed by [Om.Lift.format] for that reason. *)

  let marshal_of_string what s =
    match Marshal.from_string s 0 with
    | v -> Ok v
    | exception (Failure m | Invalid_argument m) ->
        Error (Printf.sprintf "%s: bad marshalled payload: %s" what m)

  let lifted_key u =
    digest_string (Om.Lift.format ^ "\x00" ^ cunit_digest u)

  let lifted_to_string (ms : Om.Lift.module_sym) = Marshal.to_string ms []

  let lifted_of_string s : (Om.Lift.module_sym, string) result =
    marshal_of_string "lifted module" s

  (* [No_sharing] canonicalizes the bytes: physical sharing inside an
     image varies with how it was produced (fresh lifts vs store
     round-trips), and image digests — the whole-image cache key and the
     daemon's bit-identity story — must depend on content only. The
     image type is acyclic plain data, so the flag is safe. *)
  let image_to_string (i : Linker.Image.t) =
    Marshal.to_string i [ Marshal.No_sharing ]

  let image_of_string s : (Linker.Image.t, string) result =
    marshal_of_string "image" s

  let image_digest i = digest_string (image_to_string i)

  let archive_digest (a : Objfile.Archive.t) =
    digest_bytes (Objfile.Obj_io.write_archive a)
end
