(* The executing simulator's front door. The machine state and its
   semantics live in {!State}; the fused block-superinstruction executor
   lives in {!Blocks}. This module re-exports the public types, keeps the
   per-instruction decoded loop ([run_decoded_unfused]) for trace/probe
   instrumentation, routes plain runs to the fused path, and retains the
   symbolic reference interpreter ([run_reference]) as the oracle. *)

open State

type config = State.config = {
  icache_bytes : int;
  dcache_bytes : int;
  line_bytes : int;
  icache_miss_penalty : int;
  dcache_miss_penalty : int;
  branch_penalty : int;
  dual_issue : bool;
  heap_max : int;
  max_insns : int;
}

let default_config = State.default_config

type stats = State.stats = {
  insns : int;
  cycles : int;
  loads : int;
  stores : int;
  icache_misses : int;
  dcache_misses : int;
  nops_executed : int;
}

type outcome = State.outcome = {
  exit_code : int64;
  output : string;
  stats : stats;
}

type error = State.error =
  | Unaligned_access of int
  | Out_of_range_access of int
  | Undecodable of int
  | Bad_syscall of int64
  | Unknown_pal of int
  | Heap_exhausted
  | Insn_limit_reached

let pp_error = State.pp_error

type probe_event = {
  ev_pc : int;
  ev_insn : Isa.Insn.t;
  ev_cycles : int;
  ev_icache_miss : bool;
  ev_dcache_miss : bool;
}

module R = Isa.Reg
module I = Isa.Insn
module D = Decoded

(* --- the per-instruction decoded path ---

   The pre-superinstruction interpreter over {!Decoded}: one
   fetch/time/execute/writeback round per retired instruction. Kept as
   the instrumentation path — [trace] and [probe] hooks fire here with
   exact per-instruction attribution — and as a mid-fidelity rung for
   the differential tests ([run_reference] is still the root oracle). *)

let run_decoded_unfused ?(config = default_config) ?trace ?probe (d : D.t) =
  let image = d.D.image in
  let m = create_machine config image in
  boot m image;
  let kind = d.D.kind
  and ra_a = d.D.ra
  and rb_a = d.D.rb
  and rc_a = d.D.rc
  and imm_a = d.D.imm
  and uses_a = d.D.uses
  and defs_a = d.D.defs
  and lat_a = d.D.lat
  and pipe_a = d.D.pipe
  and flags_a = d.D.flags
  and target_a = d.D.target
  and insns_a = d.D.insns in
  let n = Array.length kind in
  let text_base = m.text_base in
  let ready = m.ready in
  let max_insns = config.max_insns in
  let dual_issue = config.dual_issue in
  let icache_miss_penalty = config.icache_miss_penalty in
  let dcache_miss_penalty = config.dcache_miss_penalty in
  let branch_penalty = config.branch_penalty in
  let pc = ref image.Linker.Image.entry in
  let last_issue = ref (-1) in
  let last_pc = ref min_int in
  let last_pipe = ref (-1) in            (* -1 = none *)
  let last_was_ctl = ref true in
  let finished = ref None in
  (try
     while Option.is_none !finished do
       if m.ninsns >= max_insns then raise (Fault Insn_limit_reached);
       let idx = (!pc - text_base) asr 2 in
       if idx < 0 || idx >= n then raise (Fault (Out_of_range_access !pc));
       (match trace with
       | Some f -> f ~pc:!pc (Array.unsafe_get insns_a idx)
       | None -> ());
       m.ninsns <- m.ninsns + 1;
       let fl = Array.unsafe_get flags_a idx in
       if fl land D.flag_nop <> 0 then m.nops <- m.nops + 1;
       let issue0 = !last_issue in
       let dmiss0 =
         match probe with Some _ -> Cache.misses m.dcache | None -> 0
       in
       (* --- timing --- *)
       let fetch_penalty =
         if Cache.access m.icache !pc then 0 else icache_miss_penalty
       in
       let operand_ready = max_ready ready (Array.unsafe_get uses_a idx) in
       let pipe = Array.unsafe_get pipe_a idx in
       let pairable =
         dual_issue && fetch_penalty = 0
         && !pc = !last_pc + 4
         && !last_pc land 7 = 0
         && (not !last_was_ctl)
         && !last_pipe >= 0 && !last_pipe <> pipe
         && operand_ready <= !last_issue
       in
       let issue =
         if pairable then !last_issue
         else max (!last_issue + 1) operand_ready + fetch_penalty
       in
       (* --- execute --- *)
       let next_pc = ref (!pc + 4) in
       let taken = ref false in
       let result_latency = ref (Array.unsafe_get lat_a idx) in
       let k = Array.unsafe_get kind idx in
       (if k >= D.k_op_base && k < D.k_syscall then begin
          (* binary operate: operator folded into the kind *)
          let a = rget m (Array.unsafe_get ra_a idx) in
          let op, b =
            if k < D.k_opi_base then
              (k - D.k_op_base, rget m (Array.unsafe_get rb_a idx))
            else (k - D.k_opi_base, Int64.of_int (Array.unsafe_get imm_a idx))
          in
          let v =
            match op with
            | 0 -> Int64.add a b
            | 1 -> Int64.sub a b
            | 2 -> Int64.mul a b
            | 3 -> bool64 (Int64.equal a b)
            | 4 -> bool64 (Int64.compare a b < 0)
            | 5 -> bool64 (Int64.compare a b <= 0)
            | 6 -> bool64 (Int64.unsigned_compare a b < 0)
            | 7 -> bool64 (Int64.unsigned_compare a b <= 0)
            | 8 -> Int64.logand a b
            | 9 -> Int64.logor a b
            | 10 -> Int64.logxor a b
            | 11 -> Int64.logor a (Int64.lognot b)
            | 12 -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
            | 13 ->
                Int64.shift_right_logical a
                  (Int64.to_int (Int64.logand b 63L))
            | _ -> Int64.shift_right a (Int64.to_int (Int64.logand b 63L))
          in
          rset m (Array.unsafe_get rc_a idx) v
        end
        else if k = D.k_lda then
          rset m (Array.unsafe_get ra_a idx)
            (Int64.add
               (rget m (Array.unsafe_get rb_a idx))
               (Int64.of_int (Array.unsafe_get imm_a idx)))
        else if k = D.k_ldq then begin
          let addr =
            Int64.to_int (rget m (Array.unsafe_get rb_a idx))
            + Array.unsafe_get imm_a idx
          in
          m.loads <- m.loads + 1;
          let hit = Cache.access m.dcache addr in
          if not hit then
            result_latency := !result_latency + dcache_miss_penalty;
          rset m (Array.unsafe_get ra_a idx) (read64 m addr)
        end
        else if k = D.k_stq then begin
          let addr =
            Int64.to_int (rget m (Array.unsafe_get rb_a idx))
            + Array.unsafe_get imm_a idx
          in
          m.stores <- m.stores + 1;
          ignore (Cache.access m.dcache addr);
          write64 m addr (rget m (Array.unsafe_get ra_a idx))
        end
        else if k = D.k_bcond then begin
          let v = rget m (Array.unsafe_get ra_a idx) in
          let t =
            match Array.unsafe_get rc_a idx with
            | 0 -> Int64.equal v 0L
            | 1 -> not (Int64.equal v 0L)
            | 2 -> Int64.compare v 0L < 0
            | 3 -> Int64.compare v 0L <= 0
            | 4 -> Int64.compare v 0L >= 0
            | 5 -> Int64.compare v 0L > 0
            | 6 -> Int64.equal (Int64.logand v 1L) 0L
            | _ -> Int64.equal (Int64.logand v 1L) 1L
          in
          if t then begin
            next_pc := Array.unsafe_get target_a idx;
            taken := true
          end
        end
        else if k = D.k_br then begin
          rset m (Array.unsafe_get ra_a idx) (Int64.of_int (!pc + 4));
          next_pc := Array.unsafe_get target_a idx;
          taken := true
        end
        else if k = D.k_jump then begin
          let target =
            Int64.to_int (rget m (Array.unsafe_get rb_a idx)) land lnot 3
          in
          rset m (Array.unsafe_get ra_a idx) (Int64.of_int (!pc + 4));
          next_pc := target;
          taken := true
        end
        else if k = D.k_syscall then finished := syscall m
        else raise (Fault (Unknown_pal (Array.unsafe_get imm_a idx))));
       (* --- writeback timing --- *)
       set_ready ready (Array.unsafe_get defs_a idx) (issue + !result_latency);
       last_pc := !pc;
       last_pipe := pipe;
       last_was_ctl :=
         (fl land (D.flag_branch lor D.flag_pal) <> 0 && !taken)
         || fl land D.flag_pal <> 0;
       last_issue := if !taken then issue + branch_penalty else issue;
       (match probe with
       | Some f ->
           f
             { ev_pc = !last_pc;
               ev_insn = Array.unsafe_get insns_a idx;
               ev_cycles = !last_issue - issue0;
               ev_icache_miss = fetch_penalty > 0;
               ev_dcache_miss = Cache.misses m.dcache > dmiss0 }
       | None -> ());
       pc := !next_pc
     done;
     Ok (outcome_of m ~last_issue:!last_issue ~exit_code:(Option.get !finished))
   with Fault e -> Error e)

(* --- dispatch between the fused and instrumentation paths --- *)

let fused_runs = Atomic.make 0
let fallback_runs = Atomic.make 0

let dispatch_counts () = (Atomic.get fused_runs, Atomic.get fallback_runs)

let run_decoded ?(config = default_config) ?trace ?probe ?blocks (d : D.t) =
  match (trace, probe) with
  | None, None ->
      Atomic.incr fused_runs;
      let b =
        match blocks with
        | Some b when Blocks.decoded b == d && Blocks.config b = config -> b
        | _ -> Blocks.create ~config d
      in
      Blocks.run b
  | _ ->
      (* instrumented: per-instruction hooks need the unfused loop *)
      Atomic.incr fallback_runs;
      run_decoded_unfused ~config ?trace ?probe d

let decode (image : Linker.Image.t) =
  match D.of_image image with
  | Ok d -> Ok d
  | Error (pc, _) -> Error (Undecodable pc)

let run ?config ?trace ?probe (image : Linker.Image.t) =
  match decode image with
  | Error e -> Error e
  | Ok d -> run_decoded ?config ?trace ?probe d

(* --- the reference interpreter ---

   The original symbolic-form interpreter, retained verbatim as the
   semantic oracle: it re-derives uses/defs/pipe/latency from [Isa.Insn]
   on every retired instruction. The differential tests require
   [run_decoded] to reproduce its stats, output and exit code exactly. *)

let operand m = function
  | I.Rb r -> rget m (R.to_int r)
  | I.Imm n -> Int64.of_int n

let eval_op m (op : I.binop) ra rb =
  let a = rget m (R.to_int ra) in
  let b = operand m rb in
  match op with
  | I.Addq -> Int64.add a b
  | I.Subq -> Int64.sub a b
  | I.Mulq -> Int64.mul a b
  | I.Cmpeq -> bool64 (Int64.equal a b)
  | I.Cmplt -> bool64 (Int64.compare a b < 0)
  | I.Cmple -> bool64 (Int64.compare a b <= 0)
  | I.Cmpult -> bool64 (Int64.unsigned_compare a b < 0)
  | I.Cmpule -> bool64 (Int64.unsigned_compare a b <= 0)
  | I.And_ -> Int64.logand a b
  | I.Bis -> Int64.logor a b
  | I.Xor -> Int64.logxor a b
  | I.Ornot -> Int64.logor a (Int64.lognot b)
  | I.Sll -> Int64.shift_left a (Int64.to_int (Int64.logand b 63L))
  | I.Srl -> Int64.shift_right_logical a (Int64.to_int (Int64.logand b 63L))
  | I.Sra -> Int64.shift_right a (Int64.to_int (Int64.logand b 63L))

let cond_true (c : I.cond) v =
  match c with
  | I.Beq -> Int64.equal v 0L
  | I.Bne -> not (Int64.equal v 0L)
  | I.Blt -> Int64.compare v 0L < 0
  | I.Ble -> Int64.compare v 0L <= 0
  | I.Bge -> Int64.compare v 0L >= 0
  | I.Bgt -> Int64.compare v 0L > 0
  | I.Blbc -> Int64.equal (Int64.logand v 1L) 0L
  | I.Blbs -> Int64.equal (Int64.logand v 1L) 1L

let run_reference ?(config = default_config) ?trace ?probe
    (image : Linker.Image.t) =
  match Isa.Decode.of_bytes image.Linker.Image.text with
  | Error e ->
      Error
        (Undecodable
           (image.Linker.Image.text_base + Isa.Decode.stream_error_offset e))
  | Ok code ->
    let m = create_machine config image in
    boot m image;
    let pc = ref image.Linker.Image.entry in
    let last_issue = ref (-1) in
    let last_pc = ref min_int in
    let last_pipe = ref None in
    let last_was_ctl = ref true in
    let finished = ref None in
    (try
       while Option.is_none !finished do
         if m.ninsns >= config.max_insns then
           raise (Fault Insn_limit_reached);
         let idx = (!pc - m.text_base) asr 2 in
         if idx < 0 || idx >= Array.length code then
           raise (Fault (Out_of_range_access !pc));
         let insn = code.(idx) in
         (match trace with Some f -> f ~pc:!pc insn | None -> ());
         m.ninsns <- m.ninsns + 1;
         if I.is_nop insn then m.nops <- m.nops + 1;
         let issue0 = !last_issue in
         let dmiss0 =
           match probe with Some _ -> Cache.misses m.dcache | None -> 0
         in
         (* --- timing --- *)
         let fetch_penalty =
           if Cache.access m.icache !pc then 0 else config.icache_miss_penalty
         in
         let operand_ready =
           List.fold_left (fun acc r -> max acc m.ready.(R.to_int r)) 0
             (I.uses insn)
         in
         let pipe = Isa.Latency.pipe_of insn in
         let pairable =
           config.dual_issue && fetch_penalty = 0
           && !pc = !last_pc + 4
           && !last_pc land 7 = 0
           && (not !last_was_ctl)
           && (match !last_pipe with Some p -> p <> pipe | None -> false)
           && operand_ready <= !last_issue
         in
         let issue =
           if pairable then !last_issue
           else max (!last_issue + 1) operand_ready + fetch_penalty
         in
         (* --- execute --- *)
         let next_pc = ref (!pc + 4) in
         let taken = ref false in
         let result_latency = ref (Isa.Latency.latency insn) in
         (match insn with
         | I.Lda { ra; rb; disp } ->
             rset m (R.to_int ra)
               (Int64.add (rget m (R.to_int rb)) (Int64.of_int disp))
         | I.Ldah { ra; rb; disp } ->
             rset m (R.to_int ra)
               (Int64.add (rget m (R.to_int rb)) (Int64.of_int (disp * 65536)))
         | I.Ldq { ra; rb; disp } ->
             let addr = Int64.to_int (rget m (R.to_int rb)) + disp in
             m.loads <- m.loads + 1;
             let hit = Cache.access m.dcache addr in
             if not hit then
               result_latency := !result_latency + config.dcache_miss_penalty;
             rset m (R.to_int ra) (read64 m addr)
         | I.Stq { ra; rb; disp } ->
             let addr = Int64.to_int (rget m (R.to_int rb)) + disp in
             m.stores <- m.stores + 1;
             ignore (Cache.access m.dcache addr);
             write64 m addr (rget m (R.to_int ra))
         | I.Br { ra; disp } | I.Bsr { ra; disp } ->
             rset m (R.to_int ra) (Int64.of_int (!pc + 4));
             next_pc := !pc + 4 + (4 * disp);
             taken := true
         | I.Bcond { cond; ra; disp } ->
             if cond_true cond (rget m (R.to_int ra)) then begin
               next_pc := !pc + 4 + (4 * disp);
               taken := true
             end
         | I.Jump { ra; rb; _ } ->
             let target = Int64.to_int (rget m (R.to_int rb)) land lnot 3 in
             rset m (R.to_int ra) (Int64.of_int (!pc + 4));
             next_pc := target;
             taken := true
         | I.Op { op; ra; rb; rc } -> rset m (R.to_int rc) (eval_op m op ra rb)
         | I.Call_pal 0x83 -> finished := syscall m
         | I.Call_pal code -> raise (Fault (Unknown_pal code)));
         (* --- writeback timing --- *)
         List.iter
           (fun r -> m.ready.(R.to_int r) <- issue + !result_latency)
           (I.defs insn);
         last_pc := !pc;
         last_pipe := Some pipe;
         let is_ctl =
           I.is_branch insn || (match insn with I.Call_pal _ -> true | _ -> false)
         in
         last_was_ctl := is_ctl && !taken
           || (match insn with I.Call_pal _ -> true | _ -> false);
         last_issue :=
           if !taken then issue + config.branch_penalty else issue;
         (match probe with
         | Some f ->
             f
               { ev_pc = !last_pc;
                 ev_insn = insn;
                 ev_cycles = !last_issue - issue0;
                 ev_icache_miss = fetch_penalty > 0;
                 ev_dcache_miss = Cache.misses m.dcache > dmiss0 }
         | None -> ());
         pc := !next_pc
       done;
       Ok
         (outcome_of m ~last_issue:!last_issue
            ~exit_code:(Option.get !finished))
     with Fault e -> Error e)
