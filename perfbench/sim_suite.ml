(* Workload [sim-suite]: a closed loop on one thread that simulates the
   228 images of the corpus (linked in set-up), each once per pass, in a
   seeded order on the fused path. Each simulation pays a fresh decode
   and executor cache, as [bench quick] does. The machine does all the
   work and OM none; it is the workload that produces cycles, the
   paper's result. *)

type window = {
  run : Util.passes;
  sims : int;
  insns : int;
  latencies : (int * float) list;
      (* image index, seconds per simulation, decode included *)
  rows : Corpus.row list;  (* the first pass *)
  blocks : Machine.Blocks.counters;  (* deltas over the window *)
}

(* Every pass must reproduce the first one's stats and outputs. *)
let window ?tr ~rng ~seconds tally images =
  let n = Array.length images in
  let lat = ref [] and sims = ref 0 and insns = ref 0 and first = ref None in
  let b0 = Machine.Blocks.counters () in
  let pass k =
    let rows = Array.make n None in
    Array.iter
      (fun j ->
        let p, level, image = images.(j) in
        let req = !sims in
        let r =
          Tracer.maybe_span tr ~req ("sim:" ^ Corpus.level_name level)
            (fun () -> Corpus.simulate ?tr ~req image)
        in
        incr sims;
        Util.attempt tally;
        match r with
        | Error e ->
            Util.fail tally "%s %s: %s" (Corpus.program_name p)
              (Corpus.level_name level) e
        | Ok s ->
            lat := (j, s.Corpus.decode_s +. s.Corpus.run_s) :: !lat;
            insns := !insns + s.Corpus.outcome.Machine.Cpu.stats.Machine.Cpu.insns;
            rows.(j) <- Some (Corpus.row p level image s))
      (Util.shuffle rng (Array.init n Fun.id));
    let rows = List.filter_map Fun.id (Array.to_list rows) in
    match !first with
    | None -> first := Some rows
    | Some r ->
        if r <> rows then
          Util.fail tally "pass %d: cycles or outputs differ from the first pass" k
  in
  let run = Util.run_passes ~seconds pass in
  let b1 = Machine.Blocks.counters () in
  { run;
    sims = !sims;
    insns = !insns;
    latencies = !lat;
    rows = Option.value ~default:[] !first;
    blocks =
      { Machine.Blocks.hits = b1.Machine.Blocks.hits - b0.Machine.Blocks.hits;
        misses = b1.Machine.Blocks.misses - b0.Machine.Blocks.misses;
        built = b1.Machine.Blocks.built - b0.Machine.Blocks.built } }

(* Per-layer figures are per pass of 228 simulations. *)
let per_layer w tr q =
  let per_pass x = x /. float_of_int w.run.Util.passes in
  let sum f = float_of_int (Util.sumi (List.map (fun r -> f r.Corpus.stats) w.rows)) in
  let b = w.blocks in
  [ Util.m "machine.decode_ms" "ms" (per_pass (Tracer.self_ms tr (String.equal "decode")));
    Util.m "machine.run_ms" "ms" (per_pass (Tracer.self_ms tr (String.equal "run")));
    Util.m "machine.executors_built" "count"
      (per_pass (float_of_int b.Machine.Blocks.built));
    Util.m "machine.block_hit_ratio" "ratio"
      (float_of_int b.Machine.Blocks.hits
      /. float_of_int (max 1 (b.Machine.Blocks.hits + b.Machine.Blocks.misses)));
    Util.m "machine.insns" "count" (sum (fun s -> s.Machine.Cpu.insns));
    (* over whole passes this is sim-suite's ops_per_s times a constant *)
    Util.m "machine.mips" "Minsn/s"
      (float_of_int w.insns /. Util.sum (List.map snd w.latencies) /. 1e6) ]
  @ List.map
      (fun (l, c) -> Util.m ("machine.cycles." ^ Corpus.level_name l) "count" (float_of_int c))
      q.Corpus.q_cycles
  @ [ Util.m "machine.icache_misses" "count" (sum (fun s -> s.Machine.Cpu.icache_misses));
      Util.m "machine.dcache_misses" "count" (sum (fun s -> s.Machine.Cpu.dcache_misses));
      Util.m "machine.nops_executed" "count" (sum (fun s -> s.Machine.Cpu.nops_executed));
      Util.m "ocaml.minor_mb" "MB" w.run.Util.minor_mb;
      Util.m "ocaml.major_collections" "count" w.run.Util.major ]

let run ~seed ~seconds ~trace tally =
  let archives = [ Runtime.libstd () ] in
  (* set-up: compile the corpus and link its 228 images *)
  let images, setup_s =
    Util.median_setup 5 (fun () -> Corpus.link_all tally archives (Corpus.compile ()))
  in
  let images = Array.of_list images in
  let rng = Random.State.make [| seed |] in
  let w = window ~rng ~seconds tally images in
  let peak = Util.peak_rss_mb () in
  let e2e =
    Util.pass_op_metrics ~jobs:(Array.length images) w.run w.latencies
    @ [ Util.m "setup_s" "s" setup_s; Util.m "peak_rss_mb" "MB" peak ]
    @ Corpus.quality_metrics (Corpus.quality tally w.rows)
  in
  if not trace then Ok (e2e, [], None)
  else
    let tr = Tracer.create () in
    let tw = window ~tr ~rng ~seconds tally images in
    if tw.rows <> w.rows then
      Util.fail tally "traced run: cycles or outputs differ from the untraced run";
    let overhead =
      100.
      *. ((tw.run.Util.elapsed /. float_of_int tw.insns)
          /. (w.run.Util.elapsed /. float_of_int w.insns)
         -. 1.)
    in
    Ok
      ( e2e,
        per_layer tw tr (Corpus.quality tally tw.rows)
        @ [ Util.m "bench.trace_overhead_pct" "%" overhead ],
        Some tr )
