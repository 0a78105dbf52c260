module I = Isa.Insn
module D = Isa.Decode
module S = Symbolic

exception Lift_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Lift_error m)) fmt

(* --- the module-local symbolic form ---

   Lifting splits in two so the expensive half can be cached across
   links (the artifact store keys it by the module's content digest):

   - [lift_module] sees ONE compilation unit and nothing else: it checks
     that the text decodes, checks procedure coverage and folds the
     relocations into a per-instruction hint, reading opcodes and
     register fields straight from the instruction words. Symbols stay
     by name and labels are module-local, so the result is independent
     of whatever other modules end up in the program.
   - [instantiate] stitches cached module lifts into a program against a
     resolved world: it decodes each word once, straight into its node;
     names resolve to targets, module-local labels and instruction
     indices become program-wide labels and node ids.

   Everything in [module_sym] is plain immutable data (no closures, no
   world references), so [Marshal] round-trips it for the store.

   Both phases keep young pointers out of arrays longer than 256 words:
   such arrays live in the major heap, and every young value stored in
   one is promoted at the next minor collection. Per-instruction tables
   are therefore int arrays, or hold [Plain], a constant constructor, in
   the common case; instantiation builds each body as a list in text
   order. *)

(* Bumped whenever [module_sym] changes shape: stored lifts are keyed by
   it, so a payload written by another format is never unmarshalled at
   this type. *)
let format = "lift-2"

type mkey =
  | Maddr of { symbol : string; addend : int }
  | Mconst of int64

type manchor = Mentry | Mlabel of int

(* What the relocations say about one instruction. A branch is [Plain]:
   its word and [ms_labels] give its target. *)
type hint =
  | Plain
  | Literal of mkey                             (* on an [ldq] *)
  | Lituse of { load : int; jsr : bool }        (* instruction index *)
  | Gpdisp_hi of { anchor : manchor; lo : int } (* on an [ldah] *)
  | Gpdisp_lo                                   (* on its [lda] *)
  | Gprel16 of { symbol : string; addend : int }

type mproc = {
  mp_name : string;
  mp_offset : int;        (* byte offset of the entry in module text *)
  mp_first : int;         (* first instruction index *)
  mp_count : int;
  mp_entry_label : int;
}

type module_sym = {
  ms_module : string;
  ms_text : string;             (* the unit's text, checked decodable *)
  ms_hints : hint array;        (* one per text instruction *)
  ms_labels : int array;        (* per instruction: its label, or -1 *)
  ms_nlabels : int;
  ms_procs : mproc array;       (* in text order, covering the text *)
}

(* --- phase 1: per-module lift --- *)

let lift_module (u : Objfile.Cunit.t) =
  let name = u.Objfile.Cunit.name in
  try
    let text = u.Objfile.Cunit.text in
    (match D.check text with
    | Ok () -> ()
    | Error e ->
        fail "%s+%#x: undecodable text: %a" name (D.stream_error_offset e)
          D.pp_stream_error e);
    let text_len = Bytes.length text in
    let n = text_len / 4 in
    let word k = D.word text k in
    let insn_at ~at what off =
      if off < 0 || off land 3 <> 0 || off >= text_len then
        fail "%s+%#x: %s %#x outside module text" name at what off
      else off / 4
    in
    (* labels are bound to instructions, numbered in first-use order *)
    let labels = Array.make n (-1) in
    let nlabels = ref 0 in
    let label_at ~at what off =
      let k = insn_at ~at what off in
      if labels.(k) < 0 then begin
        labels.(k) <- !nlabels;
        incr nlabels
      end;
      labels.(k)
    in
    (* procedures from the unit's own symbol table, in text order *)
    let module_procs =
      List.filter_map
        (fun (s : Objfile.Symbol.t) ->
          match s.Objfile.Symbol.def with
          | Objfile.Symbol.Proc d -> Some (s.Objfile.Symbol.name, d)
          | _ -> None)
        u.Objfile.Cunit.symbols
      |> List.sort
           (fun (_, (a : Objfile.Symbol.proc_desc)) (_, b) ->
             compare a.Objfile.Symbol.offset b.Objfile.Symbol.offset)
    in
    (* coverage check *)
    let covered =
      List.fold_left
        (fun cursor (pname, (d : Objfile.Symbol.proc_desc)) ->
          if d.Objfile.Symbol.offset <> cursor then
            fail "%s+%#x: text gap before %s (at %#x)" name cursor pname
              d.Objfile.Symbol.offset;
          if d.Objfile.Symbol.offset land 3 <> 0 || d.Objfile.Symbol.size < 0
          then
            fail "%s+%#x: procedure %s is not instruction-aligned" name
              d.Objfile.Symbol.offset pname;
          cursor + d.Objfile.Symbol.size)
        0 module_procs
    in
    if covered <> text_len then
      fail "%s+%#x: procedures cover %d of %d text bytes" name covered covered
        text_len;
    (* branch targets get labels, in text order (per procedure, as the
       procedures are contiguous); [entry.(k)] is the entry offset of
       the procedure holding instruction [k] *)
    let entry = Array.make n 0 in
    let procs =
      List.map
        (fun (pname, (d : Objfile.Symbol.proc_desc)) ->
          let first = d.Objfile.Symbol.offset / 4 in
          let count = d.Objfile.Symbol.size / 4 in
          for k = first to first + count - 1 do
            entry.(k) <- d.Objfile.Symbol.offset;
            let w = word k in
            if D.kind w = D.Branch then
              ignore
                (label_at ~at:(4 * k) "branch target"
                   ((4 * (k + 1)) + (4 * D.branch_disp w)))
          done;
          let entry_label =
            label_at ~at:d.Objfile.Symbol.offset "procedure entry"
              d.Objfile.Symbol.offset
          in
          { mp_name = pname;
            mp_offset = d.Objfile.Symbol.offset;
            mp_first = first;
            mp_count = count;
            mp_entry_label = entry_label })
        module_procs
    in
    (* fold relocations into the hints *)
    let hints = Array.make n Plain in
    let is_plain k = match hints.(k) with Plain -> true | _ -> false in
    List.iter
      (fun (r : Objfile.Reloc.t) ->
        if Objfile.Section.equal r.section Objfile.Section.Text then begin
          let off = r.offset in
          if off < 0 || off land 3 <> 0 || off >= text_len then
            fail "%s+%#x: relocation hits no instruction" name off;
          let at = off / 4 in
          let w = word at in
          match r.kind with
          | Objfile.Reloc.Literal { gat_index } ->
              let gat = u.Objfile.Cunit.gat in
              if gat_index < 0 || gat_index >= Array.length gat then
                fail "%s+%#x: LITERAL names GAT entry %d of %d" name off
                  gat_index (Array.length gat);
              if not (is_plain at && D.kind w = D.Ldq) then
                fail "%s+%#x: LITERAL not on an address load" name off;
              hints.(at) <-
                Literal
                  (match gat.(gat_index) with
                  | Objfile.Gat_entry.Addr { symbol; addend } ->
                      Maddr { symbol; addend }
                  | Objfile.Gat_entry.Const c -> Mconst c)
          | Objfile.Reloc.Lituse_base { load_offset }
          | Objfile.Reloc.Lituse_jsr { load_offset } ->
              let jsr =
                match r.kind with
                | Objfile.Reloc.Lituse_jsr _ -> true
                | _ -> false
              in
              let load = insn_at ~at:off "dangling LITUSE load" load_offset in
              if not (is_plain at && D.kind w <> D.Branch) then
                fail "%s+%#x: LITUSE on a non-plain instruction" name off;
              hints.(at) <- Lituse { load; jsr }
          | Objfile.Reloc.Gpdisp { anchor; pair } ->
              let lo = insn_at ~at:off "dangling GPDISP pair" pair in
              (* the anchor is either this instruction's enclosing
                 procedure entry or a labelled return point *)
              let anchor =
                if entry.(at) = anchor then Mentry
                else Mlabel (label_at ~at:off "GPDISP anchor" anchor)
              in
              if
                not
                  (is_plain at && D.kind w = D.Ldah && is_plain lo
                  && D.kind (word lo) = D.Lda)
              then fail "%s+%#x: GPDISP not on an ldah/lda pair" name off;
              hints.(at) <- Gpdisp_hi { anchor; lo };
              hints.(lo) <- Gpdisp_lo
          | Objfile.Reloc.Refquad _ -> fail "%s+%#x: REFQUAD in text" name off
          | Objfile.Reloc.Gprel16 { symbol; addend } ->
              (* optimistically-compiled direct GP-relative access *)
              let gp_mem =
                match D.kind w with
                | D.Lda | D.Ldq | D.Stq -> Isa.Reg.equal (D.rb w) Isa.Reg.gp
                | _ -> false
              in
              if not (is_plain at && gp_mem) then
                fail "%s+%#x: GPREL16 not on a gp-based memory op" name off;
              hints.(at) <- Gprel16 { symbol; addend }
        end)
      u.Objfile.Cunit.relocs;
    Ok
      { ms_module = name;
        ms_text = Bytes.to_string text;
        ms_hints = hints;
        ms_labels = labels;
        ms_nlabels = !nlabels;
        ms_procs = Array.of_list procs }
  with
  | Lift_error m -> Error m
  | Invalid_argument m -> Error (name ^ ": " ^ m)

(* --- phase 2: instantiation against a resolved world --- *)

let instantiate (world : Linker.Resolve.t) (msyms : module_sym array) =
  try
    let nmodules = Array.length world.Linker.Resolve.modules in
    if Array.length msyms <> nmodules then
      fail "instantiate: %d lifted modules for %d world modules"
        (Array.length msyms) nmodules;
    let program =
      { S.world;
        procs = [||];
        next_label = 0;
        next_node = 0;
        entry_name =
          world.Linker.Resolve.procs.(world.Linker.Resolve.entry_proc).p_name }
    in
    (* world procedure index by (module, entry offset) *)
    let proc_idx : (int * int, int) Hashtbl.t =
      Hashtbl.create (Array.length world.Linker.Resolve.procs)
    in
    Array.iteri
      (fun i (p : Linker.Resolve.proc_rec) ->
        Hashtbl.replace proc_idx (p.p_module, p.p_offset) i)
      world.Linker.Resolve.procs;
    let all_procs = ref [] in
    Array.iteri
      (fun m ms ->
        let u = world.Linker.Resolve.modules.(m) in
        let text = u.Objfile.Cunit.text in
        if
          (not (String.equal ms.ms_module u.Objfile.Cunit.name))
          || not (String.equal ms.ms_text (Bytes.unsafe_to_string text))
        then
          fail "instantiate: lifted module %s does not match world module %s"
            ms.ms_module u.Objfile.Cunit.name;
        let glabel =
          Array.init ms.ms_nlabels (fun _ -> S.fresh_label program)
        in
        let key_of = function
          | Maddr { symbol; addend } ->
              S.Paddr (Linker.Resolve.resolve_exn world m symbol, addend)
          | Mconst c -> S.Pconst c
        in
        (* nodes are created in text order, so the node id of instruction
           [k] is [first_nid + k] and intra-module back-links are plain
           arithmetic *)
        let first_nid = program.S.next_node in
        let node k =
          let w = D.word text k in
          let sinsn =
            match ms.ms_hints.(k) with
            | Plain -> (
                match D.decode_exn w with
                | (I.Br { disp; _ } | I.Bsr { disp; _ } | I.Bcond { disp; _ })
                  as insn ->
                    let target = glabel.(ms.ms_labels.(k + 1 + disp)) in
                    S.Branch { insn; target }
                | insn -> S.Raw insn)
            | Literal key -> S.Gatload { ra = D.ra w; key = key_of key }
            | Lituse { load; jsr } ->
                let insn = D.decode_exn w in
                S.Use { insn; load_id = first_nid + load; jsr }
            | Gpdisp_hi { anchor; lo } ->
                let anchor =
                  match anchor with
                  | Mentry -> S.Aentry
                  | Mlabel l -> S.Alocal glabel.(l)
                in
                S.Gpsetup_hi { base = D.rb w; anchor; lo_id = first_nid + lo }
            | Gpdisp_lo -> S.Gpsetup_lo
            | Gprel16 { symbol; addend } ->
                S.Gprel
                  { insn = D.decode_exn w;
                    target = Linker.Resolve.resolve_exn world m symbol;
                    addend;
                    part = S.Pfull }
          in
          let nd = S.make_node program sinsn in
          let l = ms.ms_labels.(k) in
          if l >= 0 then nd.S.labels <- [ glabel.(l) ];
          nd
        in
        let[@tail_mod_cons] rec body k stop =
          if k = stop then []
          else
            let nd = node k in
            nd :: body (k + 1) stop
        in
        Array.iter
          (fun mp ->
            let sp_index =
              match Hashtbl.find_opt proc_idx (m, mp.mp_offset) with
              | Some i -> i
              | None ->
                  fail "instantiate: procedure %s of %s unknown to the world"
                    mp.mp_name u.Objfile.Cunit.name
            in
            all_procs :=
              { S.sp_index;
                sp_name = mp.mp_name;
                sp_module = m;
                entry_label = glabel.(mp.mp_entry_label);
                body = body mp.mp_first (mp.mp_first + mp.mp_count);
                sp_gp_group = 0 }
              :: !all_procs)
          ms.ms_procs)
      msyms;
    program.S.procs <- Array.of_list (List.rev !all_procs);
    Ok program
  with
  | Lift_error m -> Error m
  | Invalid_argument m -> Error m

let lift_world (world : Linker.Resolve.t) =
  let n = Array.length world.Linker.Resolve.modules in
  let rec go m acc =
    if m = n then Ok (Array.of_list (List.rev acc))
    else
      match lift_module world.Linker.Resolve.modules.(m) with
      | Ok ms -> go (m + 1) (ms :: acc)
      | Error m -> Error m
  in
  go 0 []

let run world =
  match lift_world world with
  | Error m -> Error m
  | Ok msyms -> instantiate world msyms
