(* Span-dependent instruction relaxation (Dickson's linear-time fixed
   point over the whole linked image).

   The transform picks the short form of every span-dependent site
   optimistically; this pass is what makes that safe. It re-plans the
   data region around the GAT that actually survived, validates every
   data-relative site under the tighter plan (reverting wholesale if any
   would break — the conservative plan is always a correct upper bound),
   narrows sites the tighter plan brought into range, and then runs a
   placement fixed point over the text: branches to the very next
   instruction are elided, and only sites that provably do not fit are
   grown to their long form. Sizes move monotonically after the one-time
   narrowing step — a site never shrinks again once the loop starts — so
   each pass either changes at least one site permanently or terminates:
   at most one pass per span-dependent site, each linear in the program. *)

module S = Symbolic
module I = Isa.Insn
module R = Isa.Reg
module L = Linker.Layout

exception Relax_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Relax_error m)) fmt

(* Procedure text addresses under a placement, indexed like
   [world.procs]. *)
let proc_addrs (program : S.program) (placement : Lower.placement) =
  let world = program.S.world in
  let addrs = Array.make (Array.length world.Linker.Resolve.procs) 0 in
  Array.iteri
    (fun pi (proc : S.proc) ->
      addrs.(proc.S.sp_index) <- L.text_base + placement.Lower.proc_off.(pi))
    program.S.procs;
  addrs

(* Would every data-relative site the transform already committed to
   still fit if [candidate] replaced the current plan? Text addresses are
   taken from the entry placement: later branch relaxation moves them by
   at most a few words, while the checks here have ~2GB of margin for
   text targets, so the answer cannot flip. *)
let plan_fits (program : S.program) candidate ~addr_of =
  let ok = ref true in
  Array.iter
    (fun (proc : S.proc) ->
      let gp =
        Datalayout.gp_of_proc candidate ~sp_module:proc.S.sp_module
      in
      List.iter
        (fun (n : S.node) ->
          match n.S.insn with
          | S.Gprel { target; addend; part; _ } -> (
              let rel = addr_of candidate target + addend - gp in
              match part with
              | S.Pfull -> if not (I.fits_disp16 rel) then ok := false
              | S.Phi -> if not (I.fits_disp32 rel) then ok := false
              | S.Plo extra -> (
                  match I.split32_opt rel with
                  | Some (_, lo) ->
                      if not (I.fits_disp16 (lo + extra)) then ok := false
                  | None -> ok := false))
          | S.Lea_wide { target; addend; _ } ->
              let rel = addr_of candidate target + addend - gp in
              if not (I.fits_disp32 rel) then ok := false
          | _ -> ())
        proc.S.body)
    program.S.procs;
  !ok

let sum = Array.fold_left ( + ) 0

let run ?(options = Lower.default_options) (program : S.program)
    (plan : Datalayout.plan) (stats : Stats.t) =
  try
    let world = program.S.world in
    let alloc plan =
      match Lower.alloc_gat program plan with
      | Ok ga -> ga
      | Error m -> fail "%s" m
    in
    (* -- exact-GAT replanning: the reservation was a pre-transform
       superset; shrink it to the keys that survived, pulling the rest of
       the data region toward GP (group 0's GP itself never moves, its
       table starts the region) -- *)
    let exact_bytes =
      Array.map (fun n -> max 16 (8 * n)) (alloc plan).Lower.ga_counts
    in
    let plan =
      if exact_bytes = plan.Datalayout.group_gat_bytes then plan
      else begin
        let candidate =
          Datalayout.plan ~live:plan.Datalayout.live world
            ~group_of_module:plan.Datalayout.group_of_module
            ~ngroups:plan.Datalayout.ngroups ~group_gat_bytes:exact_bytes
        in
        let paddrs = proc_addrs program (Lower.place ~options program) in
        let addr_of p t =
          match t with
          | Linker.Resolve.Tproc q -> paddrs.(q)
          | Linker.Resolve.Tobj _ -> Datalayout.address_of world p t
        in
        if plan_fits program candidate ~addr_of then begin
          stats.Stats.relax_gat_bytes_freed <-
            stats.Stats.relax_gat_bytes_freed
            + sum plan.Datalayout.group_gat_bytes
            - sum exact_bytes;
          candidate
        end
        else plan
      end
    in
    (* -- one-time narrowing and GAT-window growth under the final plan.
       Only data objects can narrow: a procedure address is ~0.5GB from
       GP and can never fit the 16-bit form. -- *)
    let ga = alloc plan in
    Array.iter
      (fun (proc : S.proc) ->
        let group = plan.Datalayout.group_of_module.(proc.S.sp_module) in
        let gp = plan.Datalayout.gp_of_group.(group) in
        List.iter
          (fun (n : S.node) ->
            match n.S.insn with
            | S.Lea_wide
                { ra; target = Linker.Resolve.Tobj _ as target; addend } ->
                let rel =
                  Datalayout.address_of world plan target + addend - gp
                in
                if I.fits_disp16 rel then begin
                  n.S.insn <-
                    S.Gprel
                      { insn = I.Lda { ra; rb = R.gp; disp = 0 };
                        target;
                        addend;
                        part = S.Pfull };
                  stats.Stats.sites_narrowed <- stats.Stats.sites_narrowed + 1
                end
            | S.Gatload { ra; key } -> (
                match Hashtbl.find_opt ga.Lower.ga_tables.(group) key with
                | Some slot ->
                    let sa =
                      L.data_base
                      + plan.Datalayout.group_gat_off.(group)
                      + (8 * slot)
                    in
                    if not (I.fits_disp16 (sa - gp)) then begin
                      n.S.insn <- S.Gatload_wide { ra; key };
                      stats.Stats.sites_grown <- stats.Stats.sites_grown + 1
                    end
                | None -> ())
            | _ -> ())
          proc.S.body)
      program.S.procs;
    (* -- the branch fixed point: sizes only grow (or drop to zero by
       elision, which is equally permanent), so each pass that changes
       anything retires at least one site for good — Dickson's linear
       termination argument -- *)
    let nsites =
      let c = ref 0 in
      S.iter_nodes program (fun _ n ->
          match n.S.insn with S.Branch _ -> incr c | _ -> ());
      !c
    in
    let max_iter = nsites + 8 in
    let rec iterate () =
      stats.Stats.relax_iterations <- stats.Stats.relax_iterations + 1;
      let placement = Lower.place ~options program in
      let labels = Lower.label_offsets program placement in
      let changed = ref false in
      S.iter_nodes program (fun proc n ->
          match n.S.insn with
          | S.Branch { insn; target } -> (
              let off = placement.Lower.node_off.(n.S.nid) in
              match Lower.label_offset labels target with
              | -1 -> () (* undefined label: lowering reports it *)
              | toff -> (
                  match insn with
                  | I.Br { ra; _ }
                    when R.equal ra R.zero && toff = off + 4 ->
                      (* branch to the very next instruction: a pure
                         control no-op. Everything between the node and
                         its target is already width 0 and stays that
                         way, so the elision can never be invalidated. *)
                      n.S.insn <- S.Elided n.S.insn;
                      stats.Stats.branches_elided <-
                        stats.Stats.branches_elided + 1;
                      changed := true
                  | _ ->
                      let disp = (toff - (off + 4)) asr 2 in
                      if not (I.fits_disp21 disp) then begin
                        (match insn with
                        | I.Bsr { ra; _ } ->
                            n.S.insn <- S.Bsr_far { ra; target }
                        | I.Br { ra; _ } ->
                            n.S.insn <- S.Br_far { ra; target }
                        | I.Bcond { cond; ra; _ } ->
                            n.S.insn <- S.Bcond_far { cond; ra; target }
                        | _ ->
                            fail "%s: branch node n%d wraps a non-branch"
                              proc.S.sp_name n.S.nid);
                        stats.Stats.sites_grown <-
                          stats.Stats.sites_grown + 1;
                        changed := true
                      end))
          | _ -> ());
      if !changed then
        if stats.Stats.relax_iterations >= max_iter then
          fail "relaxation did not converge after %d passes"
            stats.Stats.relax_iterations
        else iterate ()
    in
    iterate ();
    Ok plan
  with Relax_error m -> Error m
