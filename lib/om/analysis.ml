module R = Isa.Reg
module I = Isa.Insn
module S = Symbolic

type use_status = All_marked of S.node list | Escapes

type call_kind =
  | Direct of { callee : int; via : [ `Jsr of S.node | `Bsr ] }
  | Indirect

type callsite = {
  cs_proc : int;
  cs_node : S.node;
  cs_kind : call_kind;
  cs_reset : (S.node * S.node) option;
}

type index = {
  bodies : S.node array array;
  node_proc : int array;
  node_pos : int array;
  label_proc : int array;
  label_pos : int array;
}

type t = {
  program : S.program;
  index : index;
  callsites : callsite list;
  address_taken : bool array;
  gatload_status : use_status option array;
  live_out : int array;
}

(* Node ids and labels are dense (see {!Symbolic.make_node} and
   {!Symbolic.fresh_label}), so both index flat arrays. A label bound
   twice resolves to its last binding in program order. *)
let index (program : S.program) =
  let node_proc = Array.make program.S.next_node (-1) in
  let node_pos = Array.make program.S.next_node 0 in
  let label_proc = Array.make program.S.next_label (-1) in
  let label_pos = Array.make program.S.next_label 0 in
  let bodies =
    Array.mapi
      (fun pi (proc : S.proc) ->
        let body = Array.of_list proc.S.body in
        Array.iteri
          (fun i (nd : S.node) ->
            node_proc.(nd.S.nid) <- pi;
            node_pos.(nd.S.nid) <- i;
            List.iter
              (fun l ->
                label_proc.(l) <- pi;
                label_pos.(l) <- i)
              nd.S.labels)
          body;
        body)
      program.S.procs
  in
  { bodies; node_proc; node_pos; label_proc; label_pos }

let find_node ix ~proc nid =
  if nid >= 0 && nid < Array.length ix.node_proc && ix.node_proc.(nid) = proc
  then Some ix.bodies.(proc).(ix.node_pos.(nid))
  else None

let label_owner ix l =
  if l >= 0 && l < Array.length ix.label_proc then ix.label_proc.(l) else -1

let label_home ix l =
  match label_owner ix l with
  | -1 -> None
  | pi -> Some (pi, ix.bodies.(pi).(ix.label_pos.(l)))

let mask_of rs = List.fold_left (fun acc r -> acc lor I.reg_bit r) 0 rs
let caller_saved_mask = mask_of R.caller_saved lor I.reg_bit R.gp
let call_uses_mask = mask_of R.[ a0; a1; a2; a3; a4; a5; sp; gp ]
let pal_uses_mask = mask_of R.[ v0; a0; a1; a2 ]

(* exit liveness: result, stack, callee-saved, GP *)
let exit_mask =
  mask_of R.[ v0; sp; gp; s0; s1; s2; s3; s4; s5; fp ]

(* Classification of nodes that transfer control or call. *)
type flow =
  | Fall                      (* ordinary instruction *)
  | Call                      (* jsr / cross-procedure bsr or br / pal *)
  | Cond                      (* conditional branch, or a local bsr *)
  | Goto                      (* unconditional local branch *)
  | Stop                      (* ret, indirect jmp *)

(* Per-node facts of the procedure being analysed, in body positions
   [0, n): grown to the largest body and reused across procedures. *)
type scratch = {
  flow : flow array;
  target : int array;   (* local branch target position, or -1 *)
  defs : int array;     (* effective defs: calls clobber *)
  uses : int array;     (* effective uses: calls read args *)
  block_of : int array;
  first : int array;    (* per block *)
  succ1 : int array;
  succ2 : int array;
  gen : int array;
  kill : int array;
  exit : int array;
  live_in : int array;
  live_out_blk : int array;
  reset_at : (S.node * S.node) option array;
}

let scratch n =
  let ints () = Array.make n 0 in
  { flow = Array.make n Fall;
    target = ints ();
    defs = ints ();
    uses = ints ();
    block_of = ints ();
    first = ints ();
    succ1 = ints ();
    succ2 = ints ();
    gen = ints ();
    kill = ints ();
    exit = ints ();
    live_in = ints ();
    live_out_blk = ints ();
    reset_at = Array.make n None }

(* Flow class, local target and effective register effects of every
   node: computed once, read by every later sweep. *)
let classify sc ix pi (body : S.node array) =
  let local_pos l =
    if label_owner ix l = pi then ix.label_pos.(l) else -1
  in
  Array.iteri
    (fun k (nd : S.node) ->
      sc.target.(k) <- -1;
      let f =
        match nd.S.insn with
        | S.Branch { insn = I.Bcond _; target } ->
            sc.target.(k) <- local_pos target;
            Cond
        | S.Branch { insn = I.Br _ | I.Bsr _ as insn; target } -> (
            match local_pos target with
            | -1 -> Call (* tail-ish, or a call *)
            | p -> (
                sc.target.(k) <- p;
                match insn with I.Br _ -> Goto | _ -> Cond))
        | S.Branch _ -> Stop
        | S.Raw (I.Jump { kind = I.Jsr; _ })
        | S.Use { insn = I.Jump { kind = I.Jsr; _ }; _ } -> Call
        | S.Raw (I.Jump { kind = I.Ret | I.Jmp; _ }) -> Stop
        | S.Raw (I.Call_pal _) -> Call
        | _ -> Fall
      in
      sc.flow.(k) <- f;
      (* effective register effects, treating calls as clobbering /
         reading per the calling convention *)
      let is_call =
        match nd.S.insn with
        | S.Raw (I.Jump { kind = I.Jsr; _ })
        | S.Use { insn = I.Jump { kind = I.Jsr; _ }; _ } -> true
        | S.Branch { insn = I.Bsr _; _ } -> sc.target.(k) < 0
        | _ -> false
      in
      if is_call then begin
        sc.defs.(k) <- caller_saved_mask;
        sc.uses.(k) <- call_uses_mask lor S.uses_mask nd.S.insn
      end
      else
        match nd.S.insn with
        | S.Raw (I.Call_pal _) ->
            sc.defs.(k) <- I.reg_bit R.v0;
            sc.uses.(k) <- pal_uses_mask
        | i ->
            sc.defs.(k) <- S.defs_mask i;
            sc.uses.(k) <- S.uses_mask i)
    body

let ends_block = function Cond | Goto | Stop -> true | Fall | Call -> false

(* Backward liveness over the recovered blocks, summarised per block as
   gen/kill; fills [live_out] for every node of the body. *)
let liveness sc (body : S.node array) live_out =
  let n = Array.length body in
  let nb = ref 0 in
  for k = 0 to n - 1 do
    if k = 0 || body.(k).S.labels <> [] || ends_block sc.flow.(k - 1) then begin
      sc.first.(!nb) <- k;
      incr nb
    end;
    sc.block_of.(k) <- !nb - 1
  done;
  let nb = !nb in
  let last b = if b + 1 < nb then sc.first.(b + 1) - 1 else n - 1 in
  for b = 0 to nb - 1 do
    let first = sc.first.(b) and last = last b in
    let fallthrough = if last + 1 < n then sc.block_of.(last + 1) else -1 in
    let f = sc.flow.(last) in
    let s1, s2 =
      match f with
      | Fall | Call -> (fallthrough, -1)
      | Stop -> (-1, -1)
      | Goto -> (sc.block_of.(sc.target.(last)), -1)
      | Cond ->
          if sc.target.(last) < 0 then (fallthrough, -1)
          else (sc.block_of.(sc.target.(last)), fallthrough)
    in
    sc.succ1.(b) <- s1;
    sc.succ2.(b) <- s2;
    sc.exit.(b) <- (if f = Stop || last + 1 >= n then exit_mask else 0);
    let gen = ref 0 and kill = ref 0 in
    for k = last downto first do
      gen := !gen land lnot sc.defs.(k) lor sc.uses.(k);
      kill := !kill lor sc.defs.(k)
    done;
    sc.gen.(b) <- !gen;
    sc.kill.(b) <- !kill;
    sc.live_in.(b) <- 0;
    sc.live_out_blk.(b) <- 0
  done;
  let live_in_of s = if s < 0 then 0 else sc.live_in.(s) in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nb - 1 downto 0 do
      let out =
        sc.exit.(b) lor live_in_of sc.succ1.(b) lor live_in_of sc.succ2.(b)
      in
      let inn = sc.gen.(b) lor (out land lnot sc.kill.(b)) in
      if out <> sc.live_out_blk.(b) || inn <> sc.live_in.(b) then begin
        sc.live_out_blk.(b) <- out;
        sc.live_in.(b) <- inn;
        changed := true
      end
    done
  done;
  for b = 0 to nb - 1 do
    let live = ref sc.live_out_blk.(b) in
    for k = last b downto sc.first.(b) do
      live_out.(body.(k).S.nid) <- !live;
      live := !live land lnot sc.defs.(k) lor sc.uses.(k)
    done
  done

(* Call sites of one procedure, most recent first onto [acc]. *)
let callsites sc ix program pi (body : S.node array) acc =
  let proc = program.S.procs.(pi) in
  let n = Array.length body in
  Array.fill sc.reset_at 0 n None;
  (* resets: Gpsetup_hi anchored at the node right after a call *)
  Array.iter
    (fun (nd : S.node) ->
      match nd.S.insn with
      | S.Gpsetup_hi { anchor = S.Alocal l; lo_id; _ }
        when label_owner ix l = pi && ix.label_pos.(l) > 0 -> (
          match find_node ix ~proc:pi lo_id with
          | Some lo -> sc.reset_at.(ix.label_pos.(l) - 1) <- Some (nd, lo)
          | None -> ())
      | _ -> ())
    body;
  let acc = ref acc in
  let add i kind =
    acc :=
      { cs_proc = pi; cs_node = body.(i); cs_kind = kind;
        cs_reset = sc.reset_at.(i) }
      :: !acc
  in
  for i = 0 to n - 1 do
    match body.(i).S.insn with
    | S.Use { insn = I.Jump { kind = I.Jsr; _ }; load_id; jsr = true } -> (
        match find_node ix ~proc:pi load_id with
        | Some
            ({ S.insn =
                 S.Gatload { key = S.Paddr (Linker.Resolve.Tproc p, 0); _ };
               _ } as load) ->
            add i (Direct { callee = p; via = `Jsr load })
        | _ -> add i Indirect)
    | S.Raw (I.Jump { kind = I.Jsr; _ }) -> add i Indirect
    | S.Branch { insn = I.Bsr _; target } -> (
        if sc.target.(i) >= 0 then
          (* recursive bsr inside the same procedure *)
          add i (Direct { callee = proc.S.sp_index; via = `Bsr })
        else
          match label_owner ix target with
          | -1 -> add i Indirect
          | tpi ->
              add i (Direct { callee = program.S.procs.(tpi).S.sp_index; via = `Bsr }))
    | _ -> ()
  done;
  !acc

(* Use chains of the procedure's address loads. *)
let use_chains sc ~local_only (body : S.node array) live_out status =
  let n = Array.length body in
  Array.iteri
    (fun i (load : S.node) ->
      match load.S.insn with
      | S.Gatload { ra; _ } ->
          let bit = 1 lsl R.to_int ra in
          let rec scan k acc =
            if k >= n then
              (* fell off the procedure *)
              if exit_mask land bit <> 0 then Escapes else All_marked acc
            else begin
              let nd = body.(k) in
              if nd.S.labels <> [] then
                (* control-flow join *)
                if local_only then Escapes
                else if live_out.(body.(k - 1).S.nid) land bit <> 0 then Escapes
                else All_marked acc
              else
                let d = sc.defs.(k) and u = sc.uses.(k) in
                let marked =
                  match nd.S.insn with
                  | S.Use { load_id; _ } -> load_id = load.S.nid
                  | _ -> false
                in
                if marked then
                  let acc = nd :: acc in
                  if d land bit <> 0 then All_marked acc
                  else continue_scan k acc
                else if u land bit <> 0 then Escapes
                else if d land bit <> 0 then All_marked acc
                else continue_scan k acc
            end
          and continue_scan k acc =
            match sc.flow.(k) with
            | Fall | Call -> scan (k + 1) acc
            | Goto | Cond | Stop ->
                (* end of block *)
                if local_only then
                  (* a traditional linker stops at the first branch *)
                  Escapes
                else if live_out.(body.(k).S.nid) land bit <> 0 then Escapes
                else All_marked acc
          in
          status.(load.S.nid) <-
            Some
              (match scan (i + 1) [] with
              | All_marked acc -> All_marked (List.rev acc)
              | Escapes -> Escapes)
      | _ -> ())
    body

let run ?(local_only = false) ?(section_live = fun _ _ -> true)
    (program : S.program) =
  let world = program.S.world in
  let ix = index program in
  let live_out = Array.make program.S.next_node 0 in
  let gatload_status = Array.make program.S.next_node None in
  let sc =
    scratch (Array.fold_left (fun m b -> max m (Array.length b)) 0 ix.bodies)
  in
  let callsites_rev = ref [] in
  Array.iteri
    (fun pi body ->
      classify sc ix pi body;
      liveness sc body live_out;
      callsites_rev := callsites sc ix program pi body !callsites_rev;
      use_chains sc ~local_only body live_out gatload_status)
    ix.bodies;
  (* --- address-taken procedures --- *)
  let address_taken = Array.make (Array.length world.Linker.Resolve.procs) false in
  address_taken.(world.Linker.Resolve.entry_proc) <- true;
  Array.iteri
    (fun m (u : Objfile.Cunit.t) ->
      List.iter
        (fun (r : Objfile.Reloc.t) ->
          match r.kind with
          (* a reference from GC'd data is no escape: the PV can still be
             devirtualized and its prologue setup deleted *)
          | Objfile.Reloc.Refquad { symbol; _ }
            when section_live m r.section -> (
              match Linker.Resolve.resolve world m symbol with
              | Some (Linker.Resolve.Tproc p) -> address_taken.(p) <- true
              | _ -> ())
          | _ -> ())
        u.Objfile.Cunit.relocs)
    world.Linker.Resolve.modules;
  S.iter_nodes program (fun _proc nd ->
      match nd.S.insn with
      | S.Gatload { key = S.Paddr (Linker.Resolve.Tproc p, addend); _ } -> (
          match gatload_status.(nd.S.nid) with
          | Some (All_marked uses)
            when addend = 0
                 && List.for_all
                      (fun (u : S.node) ->
                        match u.S.insn with
                        | S.Use { jsr = true; _ } -> true
                        | _ -> false)
                      uses
                 && uses <> [] -> ()
          | _ -> address_taken.(p) <- true)
      | _ -> ());
  { program;
    index = ix;
    callsites = List.rev !callsites_rev;
    address_taken;
    gatload_status;
    live_out }
