type proc_info = {
  name : string;
  entry : int;
  size : int;
  gp_value : int;
  module_name : string;
  exported : bool;
  uses_gp : bool;
  gp_setup_at_entry : bool;
}

type t = {
  text_base : int;
  text : Bytes.t;
  data_base : int;
  data : Bytes.t;
  entry : int;
  procs : proc_info array;
  symbols : (string * int) list;
  heap_base : int;
  gat_base : int;
  gat_bytes : int;
  ngroups : int;
}

let find_proc t name =
  Array.find_opt (fun (p : proc_info) -> String.equal p.name name) t.procs

let proc_containing t addr =
  Array.find_opt
    (fun (p : proc_info) -> addr >= p.entry && addr < p.entry + p.size)
    t.procs

let symbol_address t name =
  Option.map snd (List.find_opt (fun (n, _) -> String.equal n name) t.symbols)

let insn_count t = Bytes.length t.text / 4

let insns t =
  match Isa.Decode.of_bytes t.text with
  | Ok is -> is
  | Error e ->
      invalid_arg
        (Format.asprintf "Image.insns: undecodable text: %a"
           Isa.Decode.pp_stream_error e)

let pp_disassembly ppf t =
  let is = insns t in
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i insn ->
      let addr = t.text_base + (4 * i) in
      (match Array.find_opt (fun (p : proc_info) -> p.entry = addr) t.procs with
      | Some p -> Format.fprintf ppf "%s:  (gp=%#x)@," p.name p.gp_value
      | None -> ());
      Format.fprintf ppf "  %x:  %a@," addr Isa.Insn.pp insn)
    is;
  Format.fprintf ppf "@]"

let validate t =
  let ( let* ) = Result.bind in
  let fail fmt = Format.kasprintf (fun m -> Error m) fmt in
  let text_end = t.text_base + Bytes.length t.text in
  let* () =
    if t.entry < t.text_base || t.entry >= text_end then
      fail "entry %#x outside text [%#x, %#x)" t.entry t.text_base text_end
    else Ok ()
  in
  let* () =
    match Isa.Decode.check t.text with
    | Ok () -> Ok ()
    | Error e -> fail "undecodable text: %a" Isa.Decode.pp_stream_error e
  in
  let sorted =
    List.sort
      (fun (a : proc_info) (b : proc_info) -> compare a.entry b.entry)
      (Array.to_list t.procs)
  in
  let* _ =
    List.fold_left
      (fun acc (p : proc_info) ->
        let* prev_end = acc in
        if p.entry < prev_end then fail "procedure %s overlaps" p.name
        else if p.entry + p.size > text_end then
          fail "procedure %s extends past text" p.name
        else Ok (p.entry + p.size))
      (Ok t.text_base) sorted
  in
  let data_end = t.data_base + Bytes.length t.data in
  if t.gat_bytes > 0
     && (t.gat_base < t.data_base || t.gat_base + t.gat_bytes > data_end)
  then fail "GAT [%#x, %#x) outside data" t.gat_base (t.gat_base + t.gat_bytes)
  else Ok ()
