(* The repository benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   runs one workload, checks every output, prints each metric by name
   with its unit and ends with one JSON line:
   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
   With --trace 0 the metrics are the end-to-end ones, measured with
   tracing off; with --trace 1 a traced run follows the untraced one and
   the metrics are the per-layer ones. Any failure, refusal or wrong
   result exits 1. See README.md beside this file. *)

let end_to_end =
  [ ("ops_per_s", "1/s"); ("op_ms_p50", "ms"); ("op_ms_p99", "ms");
    ("image_bytes.om-full-sched", "bytes");
    ("image_bytes.om-gc", "bytes"); ("improvement_pct.om-full", "%");
    ("improvement_pct.om-full-sched", "%"); ("improvement_pct.om-gc", "%");
    ("setup_s", "s"); ("peak_rss_mb", "MB") ]

let level_names = List.map Corpus.level_name Corpus.levels

let per_layer =
  List.map
    (fun n -> (n, "ms"))
    ([ "linker.resolve_ms"; "linker.std_link_ms"; "om.lift_ms"; "om.gc_ms";
       "om.gat-merge_ms"; "om.datalayout_ms"; "om.transform_ms";
       "om.sched_ms"; "om.relax_ms"; "om.lower_ms"; "om.verify_ms" ]
    @ List.map (fun l -> "om.level_ms." ^ l) level_names)
  @ List.map (fun f -> ("om." ^ f, "count")) Link_suite.stats_fields
  @ [ ("ocaml.minor_mb", "MB"); ("ocaml.major_collections", "count");
      ("machine.decode_ms", "ms"); ("machine.run_ms", "ms");
      ("machine.executors_built", "count"); ("machine.block_hit_ratio", "ratio");
      ("machine.insns", "count"); ("machine.mips", "Minsn/s") ]
  @ List.map (fun l -> ("machine.cycles." ^ l, "count")) level_names
  @ [ ("machine.icache_misses", "count"); ("machine.dcache_misses", "count");
      ("machine.nops_executed", "count");
      ("server.engine_ms_p50", "ms"); ("server.engine_ms_p99", "ms");
      ("server.wait_ms_p50", "ms"); ("server.wait_ms_p99", "ms");
      ("server.coalesced", "count"); ("server.shed", "count");
      ("store.cunit_hit_ratio", "ratio"); ("store.lifted_hit_ratio", "ratio");
      ("store.image_hit_ratio", "ratio"); ("protocol.reply_kb", "KB");
      ("engine.units_ms", "ms"); ("engine.lift_ms", "ms");
      ("engine.instantiate_ms", "ms"); ("engine.resolve_ms", "ms");
      ("engine.om_ms", "ms"); ("bench.trace_overhead_pct", "%") ]

let workloads =
  [ ("link-suite", Link_suite.run); ("sim-suite", Sim_suite.run);
    ("daemon-edit", Daemon_edit.run) ]

(* Metrics a workload does not measure (a layer its timed work never
   enters) print as 0; a measured metric missing from the canonical list
   is a bug in the benchmark. *)
let complete tally wanted (got : Util.metric list) =
  List.iter
    (fun (g : Util.metric) ->
      if not (List.mem_assoc g.Util.name wanted) then
        Util.fail tally "internal: unlisted metric %s" g.Util.name)
    got;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (g : Util.metric) -> g.Util.name = name) got with
      | Some g when g.Util.unit_ = unit_ && Float.is_finite g.Util.value -> g
      | Some _ ->
          Util.fail tally "internal: metric %s has the wrong unit or no finite value" name;
          Util.m name unit_ 0.
      | None -> Util.m name unit_ 0.)
    wanted

let main workload seed seconds trace =
  match List.assoc_opt workload workloads with
  | None ->
      Printf.eprintf "unknown workload %S (know: %s)\n" workload
        (String.concat ", " (List.map fst workloads));
      2
  | Some run ->
      (* libstd is compiled once per process, before any set-up *)
      ignore (Runtime.libstd () : Objfile.Archive.t);
      let tally = Util.tally () in
      let e2e, layers, tr =
        match run ~seed ~seconds ~trace tally with
        | Ok r -> r
        | Error m ->
            Util.fail tally "%s" m;
            ([], [], None)
      in
      (* a [probe] or [trace] hook would have sent a simulation down the
         unfused loop: the benchmark measures the fused path only *)
      (match Machine.Cpu.dispatch_counts () with
      | _, 0 -> ()
      | _, n -> Util.fail tally "%d simulations fell back to the unfused loop" n);
      let metrics =
        if trace then complete tally per_layer layers
        else complete tally end_to_end e2e
      in
      Option.iter
        (fun tr ->
          (try Unix.mkdir ".perfbench" 0o755
           with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          let path = Printf.sprintf ".perfbench/trace-%s.json" workload in
          Tracer.write tr path;
          Printf.printf "trace: %d spans written to %s\n" (Tracer.count tr) path)
        tr;
      let shown = if trace then e2e @ metrics else metrics in
      List.iter
        (fun (x : Util.metric) ->
          Printf.printf "%-34s %16.4f %s\n" x.Util.name x.Util.value x.Util.unit_)
        shown;
      let failed_ratio =
        float_of_int tally.Util.failed
        /. float_of_int (max 1 tally.Util.attempted)
      in
      Printf.printf "%-34s %16.4f %s  (%d of %d)\n" "failed_ratio" failed_ratio
        "ratio" tally.Util.failed tally.Util.attempted;
      List.iter (fun n -> Printf.printf "FAIL: %s\n" n) (List.rev tally.Util.notes);
      let correct = tally.Util.failed = 0 && tally.Util.attempted > 0 in
      let json =
        Obs.Json.Obj
          [ ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Int (max 1 tally.Util.attempted));
            ("failed", Obs.Json.Int tally.Util.failed);
            ( "metrics",
              Obs.Json.Obj
                (List.map
                   (fun (x : Util.metric) ->
                     ( x.Util.name,
                       Obs.Json.Obj
                         [ ("value", Obs.Json.Float x.Util.value);
                           ("unit", Obs.Json.String x.Util.unit_) ] ))
                   metrics) ) ]
      in
      print_endline (Obs.Json.to_string ~minify:true json);
      if correct then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W  link-suite | sim-suite | daemon-edit");
      ("--seed", Arg.Set_int seed, "N  seeds the workload's inputs");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1  1 adds the traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  exit (main !workload !seed !seconds (!trace <> 0))
