(* Small shared pieces: clocks, order statistics, seeded shuffles,
   process memory, the pass runner, the failure tally and the metric
   record every workload fills. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Quantile by rank over an unsorted sample: the smallest value with at
   least [q] of the sample at or below it. *)
let quantile q xs =
  match xs with
  | [] -> 0.
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) i))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs
let sumi xs = List.fold_left ( + ) 0 xs

let geomean = function
  | [] -> 1.
  | xs ->
      exp (sum (List.map log xs) /. float_of_int (List.length xs))

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Peak resident set of this process, from the kernel's high-water
   mark. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.starts_with ~prefix:"VmHWM:" line then
              Scanf.sscanf line "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      scan ()

(* Wall time of [f] repeated [n] times; returns the last value and the
   median time. Set-up runs this way so one slow repetition does not
   move [setup_s]. [release] disposes of each value but the last, before
   the next repetition and outside its time. *)
let median_setup ?(release = ignore) n f =
  let rec go k acc =
    let v, s = time f in
    if k <= 1 then (v, median (s :: acc))
    else (
      release v;
      go (k - 1) (s :: acc))
  in
  go n []

(* Compact the heap before a timed window, so each window starts from
   the same heap state whatever ran before it (set-up, another window, a
   daemon's now-garbage store). *)
let settle () = Gc.compact ()

type passes = {
  passes : int;
  elapsed : float;
  pass_s : float list;  (* wall time of each pass *)
  minor_mb : float;  (* Gc.quick_stat deltas, per pass *)
  major : float;
}

(* Run whole passes, from a settled heap, until the window has lasted
   [seconds]; at least one. Rates over whole passes do not depend on
   which part of a pass the window happened to cut off. *)
let run_passes ~seconds pass =
  settle ();
  let gc0 = Gc.quick_stat () in
  let t_start = now () in
  let rec go n acc =
    let elapsed = now () -. t_start in
    if n > 0 && elapsed >= seconds then (n, elapsed, acc)
    else
      let (), s = time (fun () -> pass n) in
      go (n + 1) (s :: acc)
  in
  let n, elapsed, pass_s = go 0 [] in
  let gc1 = Gc.quick_stat () in
  let per x = x /. float_of_int n in
  { passes = n;
    elapsed;
    pass_s;
    minor_mb =
      per
        ((gc1.Gc.minor_words -. gc0.Gc.minor_words)
        *. float_of_int (Sys.word_size / 8) /. 1048576.);
    major = per (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) }

(* Every failure a run meets is recorded here; any entry makes the run
   incorrect and the command exit nonzero. *)
type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let fail t fmt =
  Printf.ksprintf
    (fun m ->
      t.failed <- t.failed + 1;
      if List.length t.notes < 20 then t.notes <- m :: t.notes)
    fmt

let attempt t = t.attempted <- t.attempted + 1

(* A metric as printed: name, unit, value. *)
type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* The three end-to-end timing metrics of a workload's operations. *)
let op_metrics ~ops_per_s latencies =
  [ m "ops_per_s" "1/s" ops_per_s;
    m "op_ms_p50" "ms" (1000. *. median latencies);
    m "op_ms_p99" "ms" (1000. *. quantile 0.99 latencies) ]


(* The same three metrics for a workload that runs the same [jobs] once
   per pass, from (job index, latency) samples: the rate is over the
   window's whole passes, and the quantiles are over each job's median
   latency across the passes. A stretch of the window the host slows
   down moves a few passes of each job, not the medians. *)
let pass_op_metrics ~jobs run samples =
  let per_job = Array.make jobs [] in
  List.iter (fun (j, s) -> per_job.(j) <- s :: per_job.(j)) samples;
  op_metrics
    ~ops_per_s:(float_of_int (jobs * run.passes) /. run.elapsed)
    (List.filter_map
       (function [] -> None | l -> Some (median l))
       (Array.to_list per_job))

(* The same three metrics from a closed loop's (arrival time, latency)
   samples, as medians over the window cut into slices of about two
   seconds: a stretch of the window the host slows down moves one
   slice's figures, not the medians. A slice's rate runs from its first
   arrival to its last, so it does not depend on where the slice edges
   cut the request stream. Arrivals after the window are left out. *)
let sliced_op_metrics ~t_start ~seconds samples =
  let slices = max 1 (int_of_float (Float.round (seconds /. 2.))) in
  let width = seconds /. float_of_int slices in
  let buckets = Array.make slices [] in
  List.iter
    (fun ((at, _) as s) ->
      let i = int_of_float ((at -. t_start) /. width) in
      if i >= 0 && i < slices then buckets.(i) <- s :: buckets.(i))
    samples;
  let rate = function
    | [] | [ _ ] -> 0.
    | ats ->
        let lo = List.fold_left Float.min infinity ats
        and hi = List.fold_left Float.max neg_infinity ats in
        float_of_int (List.length ats - 1) /. Float.max 1e-9 (hi -. lo)
  in
  let per f = median (Array.to_list (Array.map f buckets)) in
  [ m "ops_per_s" "1/s" (per (fun b -> rate (List.map fst b)));
    m "op_ms_p50" "ms" (1000. *. per (fun b -> median (List.map snd b)));
    m "op_ms_p99" "ms" (1000. *. per (fun b -> quantile 0.99 (List.map snd b))) ]
