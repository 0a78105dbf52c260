(* Workload [daemon-edit]: a hermetic in-process omlinkd (in-memory
   store, 2 worker domains) serving two client connections, each a
   closed loop that waits for its reply as a build tool does. Each
   client owns half of the 19 compile-each programs and keeps, per
   program and level (full, sched, gc), the version it last linked. Its
   seeded mix:

   - 60% unchanged relinks of a version already linked: image-cache reads;
   - 30% one-module edits: one module gets a fresh seeded unused
     function, so its compiled code changes (a comment-only edit would
     recompile to the same bytes and be an image-cache hit);
   - 10% all-module edits: every module gets one, a cold link apart
     from libstd's cached lifts.

   Untimed warm-up requests fill the store before the window, so the
   window sees its steady state. Every reply's image digest must equal a serial in-process oracle: the
   same requests replayed through [Server.Engine.link] on a fresh
   in-memory engine. The traced run replays them once more with an
   [Obs.Trace] collector for the engine's per-layer times. *)

let levels = [ "full"; "sched"; "gc" ]
let clients = 2
let workers = 2
let store_mb = 4

(* Requests each client sends before the window. At about 6 KB of new
   store entries per request, the first half of them fill the store. *)
let warmup_requests = 500

type kind = Relink | Edit_one | Edit_all

let kind_name = function
  | Relink -> "relink"
  | Edit_one -> "edit-one"
  | Edit_all -> "edit-all"

type request = {
  kind : kind;
  level : string;
  sources : (string * string) list;
}

(* One client's request stream: a pure function of the seed and the
   client, so the oracle can replay it. Kinds come in seeded blocks of
   ten (6 relinks, 3 one-module edits, 1 all-module edit) and targets
   cycle through every (program, level) the client owns in a seeded
   order, so every seed asks for the same mix of work. *)
type gen = {
  rng : Random.State.t;
  client : int;
  owned : (string * (string * string) list) array;  (* bench, sources *)
  versions : (int * string, (string * string) list) Hashtbl.t;
  mutable kinds : kind list;
  mutable targets : (int * string) list;
  mutable edits : int;
}

let gen ~seed ~client programs =
  let owned =
    Array.of_list
      (List.filteri (fun i _ -> i mod clients = client) programs)
  in
  let versions = Hashtbl.create 64 in
  Array.iteri
    (fun i (_, sources) ->
      List.iter (fun l -> Hashtbl.replace versions (i, l) sources) levels)
    owned;
  { rng = Random.State.make [| seed; client |];
    client;
    owned;
    versions;
    kinds = [];
    targets = [];
    edits = 0 }

let block =
  List.init 6 (fun _ -> Relink) @ List.init 3 (fun _ -> Edit_one) @ [ Edit_all ]

let draw g =
  if g.kinds = [] then
    g.kinds <- Array.to_list (Util.shuffle g.rng (Array.of_list block));
  if g.targets = [] then
    g.targets <-
      Array.to_list
        (Util.shuffle g.rng
           (Array.of_list
              (List.concat_map
                 (fun i -> List.map (fun l -> (i, l)) levels)
                 (List.init (Array.length g.owned) Fun.id))));
  match (g.kinds, g.targets) with
  | k :: ks, t :: ts ->
      g.kinds <- ks;
      g.targets <- ts;
      (k, t)
  | _ -> assert false

(* The originals every client links once in set-up, so that relinks
   start out as cache hits. *)
let originals g =
  List.concat_map
    (fun (_, sources) -> List.map (fun level -> { kind = Edit_all; level; sources }) levels)
    (Array.to_list g.owned)

let unused_function g ~suffix =
  let a = 2 + Random.State.int g.rng 97 and b = Random.State.int g.rng 1000 in
  Printf.sprintf "\nfunc perfbench_edit_c%d_%d%s(x) {\n  return x * %d + %d;\n}\n"
    g.client g.edits suffix a b

(* An edited module is its original text plus one fresh unused
   function, replacing the one a previous edit added: sources stay the
   same size however long the run, so every request of the window costs
   what the first ones did. *)
let next g =
  let kind, (i, level) = draw g in
  let current = Hashtbl.find g.versions (i, level) in
  let original = snd g.owned.(i) in
  let edited k suffix =
    let name, text = List.nth original k in
    (name, text ^ unused_function g ~suffix)
  in
  let sources =
    match kind with
    | Relink -> current
    | Edit_one ->
        let m = Random.State.int g.rng (List.length current) in
        g.edits <- g.edits + 1;
        List.mapi (fun k src -> if k = m then edited k "" else src) current
    | Edit_all ->
        g.edits <- g.edits + 1;
        List.mapi (fun k _ -> edited k (Printf.sprintf "_m%d" k)) current
  in
  Hashtbl.replace g.versions (i, level) sources;
  { kind; level; sources }

(* What the client saw for one request. Replies keep the request's
   kind and level but not its sources: the oracle regenerates those from
   the seed, so memory does not grow with the number of requests. *)
type reply = {
  r_kind : kind;
  r_level : string;
  r_digest : string;  (* "" when the request failed *)
  rt_s : float;
  r_at : float;  (* when the reply arrived *)
  engine_s : float;
  r_hits : (string * int * int) list;  (* store kind, hits, misses *)
  reply_bytes : int;  (* hex image payload on the wire *)
}

let float_field name fields =
  Option.bind (Server.Client.field name fields) Obs.Json.get_float
  |> Option.value ~default:0.

let store_hits fields =
  List.map
    (fun kind ->
      let get k =
        Option.bind (Server.Client.field "store" fields) (fun s ->
            Option.bind (Obs.Json.member kind s) (fun c ->
                Option.bind (Obs.Json.member k c) Obs.Json.get_int))
        |> Option.value ~default:0
      in
      (kind, get "mem_hits", get "mem_misses"))
    [ "cunit"; "lifted"; "image" ]

let link_request fd tally (req : request) =
  let sources =
    List.map
      (fun (n, t) -> { Server.Protocol.src_name = n; src_text = t })
      req.sources
  in
  let t0 = Util.now () in
  let r = Server.Client.link fd ~sources ~level:req.level [] in
  let r_at = Util.now () in
  let rt_s = r_at -. t0 in
  Util.attempt tally;
  match r with
  | Ok (bytes, fields) ->
      { r_kind = req.kind;
        r_level = req.level;
        r_digest = Store.digest_string bytes;
        rt_s;
        r_at;
        engine_s = float_field "elapsed_s" fields;
        r_hits = store_hits fields;
        reply_bytes = 2 * String.length bytes }
  | Error e ->
      Util.fail tally "%s %s: [%s] %s" (kind_name req.kind) req.level
        e.Server.Protocol.code e.Server.Protocol.message;
      { r_kind = req.kind;
        r_level = req.level;
        r_digest = "";
        rt_s;
        r_at;
        engine_s = 0.;
        r_hits = [];
        reply_bytes = 0 }

(* --- the daemon --- *)

(* The daemon's accept loop runs on a thread of the main domain, beside
   the client threads; only its 2 workers get domains of their own. On 2
   vCPUs a third busy domain would make every stop-the-world minor
   collection wait on the OS scheduler. *)
type daemon = { socket : string; thread : Thread.t; served : (unit, string) result ref }

let socket_dir = ".perfbench"

(* The daemon's store (and the oracle's) keeps [store_mb] in memory:
   every client's latest versions stay resident, so relinks remain cache
   reads, while superseded versions age out and memory stops growing
   with throughput. *)
let engine () =
  Server.Engine.create
    ~store:(Store.create ~dir:None ~mem_capacity:(store_mb * 1024 * 1024) ())
    ~metrics:(Obs.Metrics.create ()) ()

let start_daemon () =
  (try Unix.mkdir socket_dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket = Printf.sprintf "%s/omlinkd-%d.sock" socket_dir (Unix.getpid ()) in
  let engine = engine () in
  Server.Engine.warmup engine;
  let served = ref (Error "daemon never returned") in
  let thread =
    Thread.create
      (fun () -> served := Server.Daemon.serve ~engine ~socket ~workers ())
      ()
  in
  let rec ready tries =
    match
      Server.Client.with_connection ~socket (fun fd -> Server.Client.ping fd ())
    with
    | Ok (Ok _) -> Ok { socket; thread; served }
    | _ when tries > 0 ->
        Unix.sleepf 0.002;
        ready (tries - 1)
    | _ -> Error "daemon never became ready"
  in
  ready 5000

let stop_daemon d =
  ignore
    (Server.Client.with_connection ~socket:d.socket Server.Client.shutdown
      : (_, string) result);
  Thread.join d.thread;
  match !(d.served) with
  | Ok () -> Ok ()
  | Error m -> Error ("daemon: " ^ m)

let sched_count name stats =
  Option.bind (Server.Client.field "sched" stats) (fun s ->
      Option.bind (Obs.Json.member name s) Obs.Json.get_int)
  |> Option.value ~default:0
  |> float_of_int

(* --- the oracle replay --- *)

(* The set-up links, then each client's first [count] requests in
   order, regenerated from the seed, serially on a fresh engine; only the
   requests are timed and traced. *)
let replay ?tr tally ~seed programs counts =
  Util.settle ();
  let engine = engine () in
  Server.Engine.warmup engine;
  let link ?tr req_id (req : request) =
    let inputs =
      List.map (fun (name, text) -> Server.Engine.Source { name; text }) req.sources
    in
    Tracer.maybe_span tr ~req:req_id ("request:" ^ kind_name req.kind) (fun () ->
        Tracer.maybe_obs tr ~req:req_id (fun () ->
            Server.Engine.link engine ~level:req.level inputs))
  in
  List.iteri
    (fun client _ ->
      List.iter
        (fun req ->
          match link 0 req with
          | Ok _ -> ()
          | Error m -> Util.fail tally "oracle set-up link: %s" m)
        (originals (gen ~seed ~client programs)))
    counts;
  let n = ref 0 and timed = ref 0. in
  let digests =
    List.mapi
      (fun client count ->
        let g = gen ~seed ~client programs in
        let out = ref [] in
        for _ = 1 to count do
          let req = next g in
          incr n;
          let r, s = Util.time (fun () -> link ?tr !n req) in
          timed := !timed +. s;
          out :=
            (match r with
            | Ok (_, _, info) -> info.Server.Engine.li_image_digest
            | Error m ->
                Util.fail tally "oracle %s %s: %s" (kind_name req.kind) req.level m;
                "")
            :: !out
        done;
        List.rev !out)
      counts
  in
  (digests, !timed)

(* --- the workload --- *)

let programs () =
  List.map
    (fun (b : Workloads.Programs.benchmark) ->
      (b.Workloads.Programs.name, b.Workloads.Programs.sources))
    Workloads.Programs.all

(* One client's closed loop on its own connection, while [more] holds
   for the number of requests sent so far. *)
let client_loop ~socket ~more tally g out =
  match Server.Client.connect ~socket () with
  | Error m -> Util.fail tally "client %d: %s" g.client m
  | Ok fd ->
      Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
      let n = ref 0 in
      while more !n do
        out := link_request fd tally (next g) :: !out;
        incr n
      done

let clients_run ~socket ~more tally gens =
  let outs = List.map (fun _ -> ref []) gens in
  let threads =
    List.map2
      (fun g out -> Thread.create (fun () -> client_loop ~socket ~more tally g out) ())
      gens outs
  in
  List.iter Thread.join threads;
  List.map (fun o -> List.rev !o) outs

let run ~seed ~seconds ~trace tally =
  let ( let* ) = Result.bind in
  let programs = programs () in
  let warm =
    List.concat_map (fun c -> originals (gen ~seed ~client:c programs))
      (List.init clients Fun.id)
  in
  (* set-up: a fresh daemon that has linked every original program at
     every level once *)
  let setup () =
    let* d = start_daemon () in
    match
      Server.Client.with_connection ~socket:d.socket (fun fd ->
          List.iter (fun r -> ignore (link_request fd tally r)) warm)
    with
    | Ok () -> Ok d
    | Error m ->
        ignore (stop_daemon d);
        Error ("set-up: " ^ m)
  in
  let release = function Ok d -> ignore (stop_daemon d) | Error _ -> () in
  let d, setup_s = Util.median_setup ~release 5 setup in
  let* d = d in
  let gens = List.init clients (fun c -> gen ~seed ~client:c programs) in
  Util.settle ();
  (* warm-up, untimed: enough edits to fill the store, so the window
     sees its steady state of evictions and memory *)
  let warm_replies =
    clients_run ~socket:d.socket ~more:(fun n -> n < warmup_requests) tally gens
  in
  let t_start = Util.now () in
  let deadline = t_start +. seconds in
  let timed =
    clients_run ~socket:d.socket ~more:(fun _ -> Util.now () < deadline) tally gens
  in
  let stats =
    match Server.Client.with_connection ~socket:d.socket Server.Client.stats with
    | Ok (Ok fields) -> fields
    | _ ->
        Util.fail tally "final stats request failed";
        []
  in
  let peak = Util.peak_rss_mb () in
  let* () = stop_daemon d in
  let replies = List.map2 ( @ ) warm_replies timed in
  let all = List.concat timed in
  let counts = List.map List.length replies in
  (* every reply against the serial oracle *)
  let check digests =
    List.iter2
      (List.iter2 (fun r want ->
           if r.r_digest <> "" && r.r_digest <> want then
             Util.fail tally "%s %s: image digest differs from the oracle"
               (kind_name r.r_kind) r.r_level))
      replies digests
  in
  let digests, replay_s = replay tally ~seed programs counts in
  check digests;
  (* the corpus check every workload ends with *)
  let rows =
    Corpus.simulate_all tally
      (Corpus.link_all tally [ Runtime.libstd () ] (Corpus.compile ()))
  in
  let e2e =
    Util.sliced_op_metrics ~t_start ~seconds
      (List.map (fun r -> (r.r_at, r.rt_s)) all)
    @ [ Util.m "setup_s" "s" setup_s; Util.m "peak_rss_mb" "MB" peak ]
    @ Corpus.quality_metrics (Corpus.quality tally rows)
  in
  Printf.printf "daemon-edit: %d requests (%s) from %d clients in %.2f s, after %d warm-up\n"
    (List.length all)
    (String.concat ", "
       (List.map
          (fun k ->
            Printf.sprintf "%d %s"
              (List.length (List.filter (fun r -> r.r_kind = k) all))
              (kind_name k))
          [ Relink; Edit_one; Edit_all ]))
    clients seconds (List.length (List.concat warm_replies));
  if not trace then Ok (e2e, [], None)
  else
    let tr = Tracer.create () in
    let traced, traced_s = replay ~tr tally ~seed programs counts in
    if traced <> digests then
      Util.fail tally "traced replay: image digests differ from the untraced one";
    let edits = List.filter (fun r -> r.r_kind <> Relink) (List.concat replies) in
    let per_edit ms = ms /. float_of_int (max 1 (List.length edits)) in
    let total name = Tracer.total_ms tr (String.equal name) in
    let om = Tracer.total_ms tr (String.starts_with ~prefix:"om:") in
    let ms f xs = 1000. *. f xs in
    let engine = List.map (fun r -> r.engine_s) all in
    let wait = List.map (fun r -> r.rt_s -. r.engine_s) all in
    let ratio kind =
      let h, m =
        List.fold_left
          (fun (h, m) r ->
            List.fold_left
              (fun (h, m) (k, kh, km) -> if k = kind then (h + kh, m + km) else (h, m))
              (h, m) r.r_hits)
          (0, 0) all
      in
      float_of_int h /. float_of_int (max 1 (h + m))
    in
    let per =
      [ Util.m "server.engine_ms_p50" "ms" (ms Util.median engine);
        Util.m "server.engine_ms_p99" "ms" (ms (Util.quantile 0.99) engine);
        Util.m "server.wait_ms_p50" "ms" (ms Util.median wait);
        Util.m "server.wait_ms_p99" "ms" (ms (Util.quantile 0.99) wait);
        Util.m "server.coalesced" "count" (sched_count "coalesced" stats);
        Util.m "server.shed" "count" (sched_count "shed" stats);
        Util.m "store.cunit_hit_ratio" "ratio" (ratio "cunit");
        Util.m "store.lifted_hit_ratio" "ratio" (ratio "lifted");
        Util.m "store.image_hit_ratio" "ratio" (ratio "image");
        Util.m "protocol.reply_kb" "KB"
          (float_of_int (Util.sumi (List.map (fun r -> r.reply_bytes) all))
          /. 1024. /. float_of_int (max 1 (List.length all)));
        Util.m "engine.units_ms" "ms" (per_edit (total "engine:units"));
        Util.m "engine.lift_ms" "ms" (per_edit (total "lift"));
        Util.m "engine.instantiate_ms" "ms" (per_edit (total "instantiate"));
        Util.m "engine.resolve_ms" "ms" (per_edit (total "resolve"));
        Util.m "engine.om_ms" "ms"
          (per_edit (om -. total "lift" -. total "instantiate"));
        Util.m "bench.trace_overhead_pct" "%" (100. *. ((traced_s /. replay_s) -. 1.)) ]
    in
    Ok (e2e, per, Some tr)
