module S = Symbolic
module I = Isa.Insn
module R = Isa.Reg

type level = Simple | Full

type options = {
  opt_calls : bool;
  opt_addr : bool;
  opt_setup_motion : bool;
  opt_setup_deletion : bool;
}

let default_options =
  { opt_calls = true;
    opt_addr = true;
    opt_setup_motion = true;
    opt_setup_deletion = true }

(* Deletion is batched: the transform only marks nodes dead, and [sweep]
   rebuilds each touched body once at the end. A dead node's labels pass
   to the next surviving instruction so branch targets stay meaningful;
   a dead final instruction would orphan its labels, so it degrades to a
   no-op instead (does not arise in practice). Until the sweep, readers of
   a body's head see it through [live], which skips what the sweep will
   drop. *)
let rec live is_dead = function
  | n :: (_ :: _ as rest) when is_dead n -> live is_dead rest
  | l -> l

let sweep is_dead (proc : S.proc) =
  let rec go pending acc = function
    | [] -> List.rev acc
    | [ (n : S.node) ] when is_dead n ->
        n.S.labels <- pending @ n.S.labels;
        n.S.insn <- S.Raw I.nop;
        List.rev (n :: acc)
    | (n : S.node) :: rest when is_dead n -> go (pending @ n.S.labels) acc rest
    | n :: rest ->
        if pending <> [] then n.S.labels <- pending @ n.S.labels;
        go [] (n :: acc) rest
  in
  proc.S.body <- go [] [] proc.S.body

let setup_pair ~is_dead body =
  match live is_dead body with
  | ({ S.insn = S.Gpsetup_hi { anchor = S.Aentry; lo_id; _ }; _ } as hi)
    :: rest -> (
      match live is_dead rest with
      | ({ S.insn = S.Gpsetup_lo; _ } as lo) :: _ when lo.S.nid = lo_id ->
          Some (hi, lo)
      | _ -> None)
  | _ -> None

let setup_at_entry (proc : S.proc) =
  setup_pair ~is_dead:(fun _ -> false) proc.S.body

let move_setups_to_entry (program : S.program) =
  Array.iter
    (fun (proc : S.proc) ->
      if Option.is_none (setup_at_entry proc) then
        let hi_lo =
          List.find_map
            (fun (n : S.node) ->
              match n.S.insn with
              | S.Gpsetup_hi { anchor = S.Aentry; lo_id; _ } ->
                  List.find_opt (fun (lo : S.node) -> lo.S.nid = lo_id)
                    proc.S.body
                  |> Option.map (fun lo -> (n, lo))
              | _ -> None)
            proc.S.body
        in
        match hi_lo with
        | Some (hi, lo)
          when lo.S.labels = []
               && (hi.S.labels = []
                  ||
                  match proc.S.body with
                  | first :: _ -> first == hi
                  | [] -> false) ->
            let rest =
              List.filter (fun n -> n != hi && n != lo) proc.S.body
            in
            (* the entry label must stay at offset 0 *)
            let entry = proc.S.entry_label in
            (match rest with
            | f :: _ when List.mem entry f.S.labels ->
                f.S.labels <- List.filter (fun l -> l <> entry) f.S.labels;
                hi.S.labels <- entry :: hi.S.labels
            | _ -> ());
            proc.S.body <- hi :: lo :: rest
        | _ -> ())
    program.S.procs

let run ?(options = default_options) ?section_live level
    (program : S.program) (plan : Datalayout.plan) (stats : Stats.t) =
  if level = Full && options.opt_setup_motion then move_setups_to_entry program;
  let als = Analysis.run ~local_only:(level = Simple) ?section_live program in
  Stats.measure_before program als stats;
  let world = program.S.world in
  let nprocs = Array.length world.Linker.Resolve.procs in
  let sym_of_world = Array.make nprocs None in
  Array.iter
    (fun (proc : S.proc) -> sym_of_world.(proc.S.sp_index) <- Some proc)
    program.S.procs;
  let group_of (proc : S.proc) = plan.Datalayout.group_of_module.(proc.S.sp_module) in
  let dead = Array.make program.S.next_node false in
  let is_dead (n : S.node) = dead.(n.S.nid) in
  let touched = Array.make nprocs false in
  let delete_node (proc : S.proc) (n : S.node) =
    dead.(n.S.nid) <- true;
    touched.(proc.S.sp_index) <- true
  in
  let nullify (proc : S.proc) (n : S.node) =
    match level with
    | Simple ->
        n.S.insn <- S.Raw I.nop;
        stats.Stats.nops_added <- stats.Stats.nops_added + 1
    | Full ->
        delete_node proc n;
        stats.Stats.insns_deleted <- stats.Stats.insns_deleted + 1
  in
  (* skip labels: branch target just past a callee's entry GP setup *)
  let skip_labels = Array.make nprocs (-1) in
  let proc_skip_point (callee : S.proc) =
    match live is_dead callee.S.body with
    | _hi :: rest -> (
        match live is_dead rest with
        | _lo :: rest -> (
            match live is_dead rest with next :: _ -> Some next | [] -> None)
        | [] -> None)
    | [] -> None
  in
  let skip_label (callee : S.proc) =
    match skip_labels.(callee.S.sp_index) with
    | -1 -> (
        match proc_skip_point callee with
        | Some node ->
            let l = S.fresh_label program in
            node.S.labels <- l :: node.S.labels;
            skip_labels.(callee.S.sp_index) <- l;
            l
        | None -> callee.S.entry_label)
    | l -> l
  in
  (* --- call sites --- *)
  let entered_at_entry = Array.make nprocs false in
  let handled_loads = Array.make program.S.next_node false in
  List.iter
    (fun (cs : Analysis.callsite) ->
      let caller = program.S.procs.(cs.cs_proc) in
      let keep_reset () =
        match cs.cs_reset with
        | Some _ ->
            stats.Stats.calls_reset_after <- stats.Stats.calls_reset_after + 1
        | None -> ()
      in
      let handle_reset ~same_group ~callee_no_gp =
        match cs.cs_reset with
        | None -> ()
        | Some (hi, lo) ->
            let local_enough =
              level = Full
              ||
              (* positions as analysed: OM-simple moves nothing *)
              let p (n : S.node) = als.Analysis.index.Analysis.node_pos.(n.S.nid) in
              p hi - p cs.cs_node <= 4 && p lo - p cs.cs_node <= 4
            in
            if (same_group || callee_no_gp) && local_enough then begin
              nullify caller hi;
              nullify caller lo
            end
            else
              stats.Stats.calls_reset_after <- stats.Stats.calls_reset_after + 1
      in
      if not options.opt_calls then begin
        (* ablated: count everything as untouched *)
        (match cs.cs_kind with
        | Analysis.Direct { via = `Jsr _; _ } | Analysis.Indirect ->
            stats.Stats.calls_pv_after <- stats.Stats.calls_pv_after + 1;
            stats.Stats.jsr_after <- stats.Stats.jsr_after + 1
        | Analysis.Direct { via = `Bsr; _ } -> ());
        (match cs.cs_kind with
        | Analysis.Direct { callee; _ } -> entered_at_entry.(callee) <- true
        | Analysis.Indirect -> ());
        keep_reset ()
      end
      else
      match cs.cs_kind with
      | Analysis.Indirect ->
          stats.Stats.calls_pv_after <- stats.Stats.calls_pv_after + 1;
          stats.Stats.jsr_after <- stats.Stats.jsr_after + 1;
          keep_reset ()
      | Analysis.Direct { callee; via = `Bsr } ->
          (* compiled as an optimized local call already *)
          (match cs.cs_node.S.insn with
          | S.Branch { target; _ } -> (
              match Analysis.label_home als.Analysis.index target with
              | Some (tpi, tnode) ->
                  let tproc = program.S.procs.(tpi) in
                  let enters_entry =
                    match live is_dead tproc.S.body with
                    | first :: _ -> first == tnode
                    | [] -> false
                  in
                  if
                    enters_entry
                    && world.Linker.Resolve.procs.(callee).p_uses_gp
                  then entered_at_entry.(callee) <- true
              | None -> ())
          | _ -> ());
          keep_reset ()
      | Analysis.Direct { callee; via = `Jsr load } -> (
          match sym_of_world.(callee) with
          | None ->
              (* callee not lifted: leave the site untouched *)
              stats.Stats.calls_pv_after <- stats.Stats.calls_pv_after + 1;
              stats.Stats.jsr_after <- stats.Stats.jsr_after + 1;
              entered_at_entry.(callee) <- true;
              keep_reset ()
          | Some callee_sym ->
              let callee_w = world.Linker.Resolve.procs.(callee) in
              let same_group = group_of caller = group_of callee_sym in
              let target, pv_removable =
                if not callee_w.p_uses_gp then (callee_sym.S.entry_label, true)
                else if
                  same_group
                  && Option.is_some (setup_pair ~is_dead callee_sym.S.body)
                then (skip_label callee_sym, true)
                else (callee_sym.S.entry_label, false)
              in
              let pv_clean =
                match als.Analysis.gatload_status.(load.S.nid) with
                | Some (Analysis.All_marked us) ->
                    us <> [] && List.for_all (fun u -> u == cs.cs_node) us
                | _ -> false
              in
              (* the jsr becomes a bsr in either case *)
              cs.cs_node.S.insn <-
                S.Branch { insn = I.Bsr { ra = R.ra; disp = 0 }; target };
              handled_loads.(load.S.nid) <- true;
              if pv_removable && pv_clean then begin
                nullify caller load;
                stats.Stats.addr_nullified <- stats.Stats.addr_nullified + 1;
                stats.Stats.pvs_devirtualized <-
                  stats.Stats.pvs_devirtualized + 1
              end
              else begin
                stats.Stats.calls_pv_after <- stats.Stats.calls_pv_after + 1;
                if target = callee_sym.S.entry_label && callee_w.p_uses_gp then
                  entered_at_entry.(callee) <- true
              end;
              handle_reset ~same_group ~callee_no_gp:(not callee_w.p_uses_gp)))
    als.Analysis.callsites;
  (* --- address loads --- *)
  if options.opt_addr then
  Array.iter
    (fun (proc : S.proc) ->
      let gp = Datalayout.gp_of_proc plan ~sp_module:proc.S.sp_module in
      List.iter
        (fun (load : S.node) ->
          match load.S.insn with
          | S.Gatload { ra; key = S.Paddr ((Linker.Resolve.Tobj _ as target), key_addend) }
            when not handled_loads.(load.S.nid) -> (
              let addr = Datalayout.address_of world plan target + key_addend in
              let status = als.Analysis.gatload_status.(load.S.nid) in
              (* a use is foldable when its base really is the loaded value
                 and the resulting displacement fits *)
              let use_mem_parts (u : S.node) =
                match u.S.insn with
                | S.Use { insn = I.Ldq { ra = dst; rb = base; disp }; _ } ->
                    if R.equal base ra then Some (`Ld dst, disp) else None
                | S.Use { insn = I.Stq { ra = src; rb = base; disp }; _ } ->
                    if R.equal base ra && not (R.equal src ra) then
                      Some (`St src, disp)
                    else None
                | _ -> None
              in
              let fold_ok d = I.fits_disp16 (addr + d - gp) in
              let lo_ok d =
                I.fits_disp32 (addr - gp)
                &&
                let _, lo = I.split32 (addr - gp) in
                I.fits_disp16 (lo + d)
              in
              match status with
              | Some (Analysis.All_marked uses)
                when List.for_all
                       (fun u ->
                         match use_mem_parts u with
                         | Some (_, d) -> fold_ok d
                         | None -> false)
                       uses ->
                  (* every consumer reaches its datum GP-relative: fold
                     each use (its own displacement goes into the addend)
                     and nullify the address load *)
                  List.iter
                    (fun (u : S.node) ->
                      match (u.S.insn, use_mem_parts u) with
                      | S.Use { insn; _ }, Some (_, d) ->
                          u.S.insn <-
                            S.Gprel
                              { insn;
                                target;
                                addend = key_addend + d;
                                part = S.Pfull }
                      | _ -> assert false)
                    uses;
                  nullify proc load;
                  stats.Stats.addr_nullified <- stats.Stats.addr_nullified + 1
              | _ when I.fits_disp16 (addr - gp) ->
                  load.S.insn <-
                    S.Gprel
                      { insn = I.Lda { ra; rb = R.gp; disp = 0 };
                        target;
                        addend = key_addend;
                        part = S.Pfull };
                  stats.Stats.addr_converted <- stats.Stats.addr_converted + 1
              | Some (Analysis.All_marked uses)
                when uses <> []
                     && List.for_all
                          (fun u ->
                            match use_mem_parts u with
                            | Some (_, d) -> lo_ok d
                            | None -> false)
                          uses ->
                  (* the LDAH trick: same instruction count *)
                  load.S.insn <-
                    S.Gprel
                      { insn = I.Ldah { ra; rb = R.gp; disp = 0 };
                        target;
                        addend = key_addend;
                        part = S.Phi };
                  List.iter
                    (fun (u : S.node) ->
                      match (u.S.insn, use_mem_parts u) with
                      | S.Use { insn; _ }, Some (_, d) ->
                          u.S.insn <-
                            S.Gprel
                              { insn; target; addend = key_addend; part = S.Plo d }
                      | _ -> assert false)
                    uses;
                  stats.Stats.addr_converted <- stats.Stats.addr_converted + 1
              | _ when level = Full ->
                  load.S.insn <- S.Lea_wide { ra; target; addend = key_addend };
                  stats.Stats.addr_converted <- stats.Stats.addr_converted + 1
              | _ -> (* OM-simple keeps the GAT load *) ())
          | _ -> ())
        proc.S.body)
    program.S.procs;
  (* --- prologue GP-setup deletion (Full) --- *)
  if level = Full && options.opt_setup_deletion then
    Array.iter
      (fun (proc : S.proc) ->
        let p = proc.S.sp_index in
        if
          (not als.Analysis.address_taken.(p))
          && p <> world.Linker.Resolve.entry_proc
          && not entered_at_entry.(p)
        then
          match setup_pair ~is_dead proc.S.body with
          | Some (hi, lo) ->
              delete_node proc hi;
              delete_node proc lo;
              stats.Stats.insns_deleted <- stats.Stats.insns_deleted + 2;
              stats.Stats.gp_setups_deleted <- stats.Stats.gp_setups_deleted + 1
          | None -> ())
      program.S.procs;
  Array.iter
    (fun (proc : S.proc) -> if touched.(proc.S.sp_index) then sweep is_dead proc)
    program.S.procs;
  stats.Stats.insns_after <- S.static_insn_count program;
  als
