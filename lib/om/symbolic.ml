module R = Isa.Reg
module I = Isa.Insn

type label = int

type pool_key =
  | Paddr of Linker.Resolve.target * int
  | Pconst of int64

type anchor = Aentry | Alocal of label

type sinsn =
  | Raw of I.t
  | Gatload of { ra : R.t; key : pool_key }
  | Use of { insn : I.t; load_id : int; jsr : bool }
  | Gpsetup_hi of { base : R.t; anchor : anchor; lo_id : int }
  | Gpsetup_lo
  | Branch of { insn : I.t; target : label }
  | Gprel of {
      insn : I.t;
      target : Linker.Resolve.target;
      addend : int;
      part : part;
    }
  | Lea_wide of { ra : R.t; target : Linker.Resolve.target; addend : int }
  | Gatload_wide of { ra : R.t; key : pool_key }
  | Bsr_far of { ra : R.t; target : label }
  | Br_far of { ra : R.t; target : label }
  | Bcond_far of { cond : I.cond; ra : R.t; target : label }
  | Elided of sinsn

and part = Pfull | Phi | Plo of int

type node = {
  nid : int;
  mutable labels : label list;
  mutable insn : sinsn;
}

type proc = {
  sp_index : int;
  sp_name : string;
  sp_module : int;
  entry_label : label;
  mutable body : node list;
  mutable sp_gp_group : int;
}

type program = {
  world : Linker.Resolve.t;
  mutable procs : proc array;
  mutable next_label : int;
  mutable next_node : int;
  entry_name : string;
}

let fresh_label p =
  let l = p.next_label in
  p.next_label <- l + 1;
  l

let make_node p insn =
  let nid = p.next_node in
  p.next_node <- nid + 1;
  { nid; labels = []; insn }

let insn_of_width = function
  | Lea_wide _ | Gatload_wide _ -> 2
  | Bsr_far _ | Br_far _ -> 4
  | Bcond_far _ -> 5
  | Elided _ -> 0
  | _ -> 1

let iter_nodes p f =
  Array.iter (fun proc -> List.iter (f proc) proc.body) p.procs

let defs = function
  | Raw i -> I.defs i
  | Gatload { ra; _ } -> [ ra ]
  | Use { insn; _ } -> I.defs insn
  | Gpsetup_hi _ | Gpsetup_lo -> [ R.gp ]
  | Branch { insn; _ } -> I.defs insn
  | Gprel { insn; _ } -> I.defs insn
  | Lea_wide { ra; _ } -> [ ra ]
  | Gatload_wide { ra; _ } -> [ ra ]
  | Bsr_far { ra; _ } -> List.filter (fun r -> not (R.equal r R.zero)) [ ra; R.pv ]
  | Br_far { ra; _ } -> List.filter (fun r -> not (R.equal r R.zero)) [ ra; R.at ]
  | Bcond_far _ -> [ R.at ]
  | Elided _ -> []

let uses = function
  | Raw i -> I.uses i
  | Gatload _ -> [ R.gp ]
  | Use { insn; _ } -> I.uses insn
  | Gpsetup_hi { base; _ } -> [ base ]
  | Gpsetup_lo -> [ R.gp ]
  | Branch { insn; _ } -> I.uses insn
  | Gprel { insn; part; _ } -> (
      (* for the full/high parts the base register is replaced by gp at
         lowering, but a folded store still reads its data register *)
      match part with
      | Pfull | Phi -> (
          R.gp
          ::
          (match insn with
          | I.Stq { ra; _ } when not (R.equal ra R.zero) -> [ ra ]
          | _ -> []))
      | Plo _ -> I.uses insn)
  | Lea_wide _ -> [ R.gp ]
  | Gatload_wide _ -> [ R.gp ]
  | Bsr_far _ | Br_far _ -> []
  | Bcond_far { ra; _ } -> List.filter (fun r -> not (R.equal r R.zero)) [ ra ]
  | Elided _ -> []

let bit = I.reg_bit

let defs_mask = function
  | Raw i | Use { insn = i; _ } | Branch { insn = i; _ } | Gprel { insn = i; _ }
    -> I.defs_mask i
  | Gatload { ra; _ } | Lea_wide { ra; _ } | Gatload_wide { ra; _ } -> bit ra
  | Gpsetup_hi _ | Gpsetup_lo -> bit R.gp
  | Bsr_far { ra; _ } -> bit ra lor bit R.pv
  | Br_far { ra; _ } -> bit ra lor bit R.at
  | Bcond_far _ -> bit R.at
  | Elided _ -> 0

let uses_mask = function
  | Raw i | Use { insn = i; _ } | Branch { insn = i; _ } -> I.uses_mask i
  | Gatload _ | Gpsetup_lo | Lea_wide _ | Gatload_wide _ -> bit R.gp
  | Gpsetup_hi { base; _ } -> bit base
  | Gprel { insn; part = Pfull | Phi; _ } -> (
      match insn with I.Stq { ra; _ } -> bit R.gp lor bit ra | _ -> bit R.gp)
  | Gprel { insn; part = Plo _; _ } -> I.uses_mask insn
  | Bsr_far _ | Br_far _ | Elided _ -> 0
  | Bcond_far { ra; _ } -> bit ra

let static_insn_count p =
  Array.fold_left
    (fun acc proc ->
      List.fold_left (fun acc n -> acc + insn_of_width n.insn) acc proc.body)
    0 p.procs

let cond_name = function
  | I.Beq -> "beq" | I.Bne -> "bne" | I.Blt -> "blt" | I.Ble -> "ble"
  | I.Bge -> "bge" | I.Bgt -> "bgt" | I.Blbc -> "blbc" | I.Blbs -> "blbs"

let rec pp_sinsn world ppf = function
  | Raw i -> I.pp ppf i
  | Gatload { ra; key } -> (
      match key with
      | Paddr (t, 0) ->
          Format.fprintf ppf "ldq %a, lit[&%s](gp)" R.pp ra
            (Linker.Resolve.target_name world t)
      | Paddr (t, a) ->
          Format.fprintf ppf "ldq %a, lit[&%s%+d](gp)" R.pp ra
            (Linker.Resolve.target_name world t)
            a
      | Pconst c -> Format.fprintf ppf "ldq %a, lit[%#Lx](gp)" R.pp ra c)
  | Use { insn; load_id; jsr } ->
      Format.fprintf ppf "%a  !lituse%s(n%d)" I.pp insn
        (if jsr then "_jsr" else "")
        load_id
  | Gpsetup_hi { base; anchor; _ } ->
      Format.fprintf ppf "ldah gp, hi(%a)  !gpdisp%s" R.pp base
        (match anchor with Aentry -> "[entry]" | Alocal l -> Printf.sprintf "[L%d]" l)
  | Gpsetup_lo -> Format.fprintf ppf "lda gp, lo(gp)"
  | Branch { insn; target } ->
      let name =
        match insn with
        | I.Br _ -> "br"
        | I.Bsr _ -> "bsr"
        | I.Bcond { cond; _ } -> cond_name cond
        | _ -> "?"
      in
      Format.fprintf ppf "%s L%d" name target
  | Gprel { insn; target; addend; part } ->
      let p =
        match part with Pfull -> "" | Phi -> ".hi" | Plo e ->
          Printf.sprintf ".lo%+d" e
      in
      Format.fprintf ppf "%a  [gp-rel%s &%s%+d]" I.pp insn p
        (Linker.Resolve.target_name world target)
        addend
  | Lea_wide { ra; target; addend } ->
      Format.fprintf ppf "lea32 %a, &%s%+d(gp)" R.pp ra
        (Linker.Resolve.target_name world target)
        addend
  | Gatload_wide { ra; key } -> (
      match key with
      | Paddr (t, a) ->
          Format.fprintf ppf "ldq.w %a, lit[&%s%+d](gp)" R.pp ra
            (Linker.Resolve.target_name world t)
            a
      | Pconst c -> Format.fprintf ppf "ldq.w %a, lit[%#Lx](gp)" R.pp ra c)
  | Bsr_far { ra; target } ->
      Format.fprintf ppf "bsr.far %a, L%d" R.pp ra target
  | Br_far { ra; target } ->
      Format.fprintf ppf "br.far %a, L%d" R.pp ra target
  | Bcond_far { cond; ra; target } ->
      Format.fprintf ppf "%s.far %a, L%d" (cond_name cond) R.pp ra target
  | Elided inner ->
      Format.fprintf ppf "(elided %a)" (pp_sinsn world) inner

let pp_proc world ppf proc =
  Format.fprintf ppf "@[<v>%s (module %d, group %d):@," proc.sp_name
    proc.sp_module proc.sp_gp_group;
  List.iter
    (fun n ->
      List.iter (fun l -> Format.fprintf ppf "L%d:@," l) n.labels;
      Format.fprintf ppf "  n%-4d %a@," n.nid (pp_sinsn world) n.insn)
    proc.body;
  Format.fprintf ppf "@]"
