(* Worker-pool scheduler with request coalescing and backpressure.

   All scheduler state lives under one mutex. Tickets (one per distinct
   computation) carry their own Condition variable on that shared mutex
   so completion wakes exactly the waiters attached to that ticket.

   Every waiter, deadline or not, blocks on its ticket's condition, so a
   completion wakes it at once. OCaml's stdlib Condition has no timed
   wait, so one watchdog thread per scheduler polls the registered
   deadlines and broadcasts the condition of each expired waiter: only
   timeout detection is coarse, by at most [watch_tick]. *)

type finished =
  | F_reply of Obs.Json.t
  | F_crashed of string
  | F_aborted of string

type ticket = {
  key : string option;
  mutable job : (unit -> Obs.Json.t) option;  (* dropped once taken *)
  mutable state : finished option;
  cond : Condition.t;  (* signalled (broadcast) when [state] is set *)
  mutable waiters : int;  (* submissions still interested in the result *)
}

type t = {
  mutex : Mutex.t;
  work : Condition.t;  (* signalled when the queue grows or we stop *)
  watch : Condition.t;  (* signalled when [timed] gains a waiter or we stop *)
  mutable timed : (float * ticket) list;  (* deadline waiters, watched *)
  queue : ticket Queue.t;
  queue_limit : int;
  inflight : (string, ticket) Hashtbl.t;  (* key -> queued-or-running ticket *)
  mutable accepting : bool;
  mutable stopping : bool;
  mutable busy : int;  (* workers currently running a job *)
  mutable domains : unit Domain.t list;
  mutable joined : bool;
  n_workers : int;
  (* decaying average of service time, seeds retry_after_ms *)
  mutable avg_service_s : float;
  (* lifetime counts, mirrored into the registry *)
  mutable n_submitted : int;
  mutable n_completed : int;
  mutable n_coalesced : int;
  mutable n_shed : int;
  mutable n_abandoned : int;
  m_depth : Obs.Metrics.gauge;
  m_busy : Obs.Metrics.gauge;
  m_submitted : Obs.Metrics.counter;
  m_completed : Obs.Metrics.counter;
  m_coalesced : Obs.Metrics.counter;
  m_shed : Obs.Metrics.counter;
  m_abandoned : Obs.Metrics.counter;
}

type handle = { ticket : ticket; coalesced : bool }

type submitted =
  | Accepted of handle
  | Shed of { queue_depth : int; retry_after_ms : int }
  | Closed

type outcome =
  | Reply of Obs.Json.t
  | Crashed of string
  | Timed_out
  | Aborted of string

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let set_depth t = Obs.Metrics.set_gauge t.m_depth (float (Queue.length t.queue))
let set_busy t = Obs.Metrics.set_gauge t.m_busy (float t.busy)

let finish t ticket outcome =
  ticket.state <- Some outcome;
  ticket.job <- None;
  (match ticket.key with
  | Some k -> (
      match Hashtbl.find_opt t.inflight k with
      | Some tk when tk == ticket -> Hashtbl.remove t.inflight k
      | _ -> ())
  | None -> ());
  Condition.broadcast ticket.cond

(* Pop the next ticket someone still cares about; entries whose waiters
   all timed out are dropped unrun. Caller holds the mutex. *)
let rec next_wanted t =
  match Queue.take_opt t.queue with
  | None -> None
  | Some ticket ->
      if ticket.waiters > 0 then Some ticket
      else begin
        t.n_abandoned <- t.n_abandoned + 1;
        Obs.Metrics.incr t.m_abandoned;
        finish t ticket (F_aborted "abandoned: all waiters gave up");
        next_wanted t
      end

let watch_tick = 0.005

(* Wake every waiter whose deadline has passed; it removes itself from
   [timed] once it runs. Sleeps on [watch] while nobody has a deadline
   and exits once the scheduler stops and the last such waiter left. *)
let watchdog t =
  Mutex.lock t.mutex;
  let rec loop () =
    match t.timed with
    | [] when t.stopping -> Mutex.unlock t.mutex
    | [] ->
        Condition.wait t.watch t.mutex;
        loop ()
    | timed ->
        let now = Unix.gettimeofday () in
        let next =
          List.fold_left
            (fun next (dl, ticket) ->
              if dl <= now then begin
                Condition.broadcast ticket.cond;
                next
              end
              else Float.min next dl)
            infinity timed
        in
        Mutex.unlock t.mutex;
        Unix.sleepf (Float.max 0.0005 (Float.min watch_tick (next -. now)));
        Mutex.lock t.mutex;
        loop ()
  in
  loop ()

let worker_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    let job =
      let rec wait_for_work () =
        if t.stopping then None
        else
          match next_wanted t with
          | Some ticket ->
              t.busy <- t.busy + 1;
              set_depth t;
              set_busy t;
              let job = Option.get ticket.job in
              ticket.job <- None;
              Some (ticket, job)
          | None ->
              Condition.wait t.work t.mutex;
              wait_for_work ()
      in
      wait_for_work ()
    in
    Mutex.unlock t.mutex;
    match job with
    | None -> ()
    | Some (ticket, job) ->
        let t0 = Unix.gettimeofday () in
        let outcome =
          match job () with
          | reply -> F_reply reply
          | exception e -> F_crashed (Printexc.to_string e)
        in
        let dt = Unix.gettimeofday () -. t0 in
        locked t (fun () ->
            t.avg_service_s <-
              (if t.n_completed = 0 then dt
               else (0.8 *. t.avg_service_s) +. (0.2 *. dt));
            t.n_completed <- t.n_completed + 1;
            Obs.Metrics.incr t.m_completed;
            t.busy <- t.busy - 1;
            set_busy t;
            finish t ticket outcome);
        loop ()
  in
  loop ()

let create ?workers ?(queue_limit = 64) ?(registry = Obs.Metrics.default) () =
  let n_workers =
    match workers with
    | Some n -> max 1 n
    | None -> max 2 (Reports.Pool.default_jobs ())
  in
  let g name = Obs.Metrics.gauge ~registry name in
  let c name = Obs.Metrics.counter ~registry name in
  let t =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      watch = Condition.create ();
      timed = [];
      queue = Queue.create ();
      queue_limit = max 1 queue_limit;
      inflight = Hashtbl.create 64;
      accepting = true;
      stopping = false;
      busy = 0;
      domains = [];
      joined = false;
      n_workers;
      avg_service_s = 0.;
      n_submitted = 0;
      n_completed = 0;
      n_coalesced = 0;
      n_shed = 0;
      n_abandoned = 0;
      m_depth = g "omlt_srv_queue_depth";
      m_busy = g "omlt_srv_busy_workers";
      m_submitted = c "omlt_srv_submitted_total";
      m_completed = c "omlt_srv_completed_total";
      m_coalesced = c "omlt_srv_coalesced_total";
      m_shed = c "omlt_srv_shed_total";
      m_abandoned = c "omlt_srv_abandoned_total";
    }
  in
  t.domains <-
    List.init n_workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  ignore (Thread.create watchdog t : Thread.t);
  t

let workers t = t.n_workers
let queue_limit t = t.queue_limit

(* How long a shed client should back off: the backlog's expected
   drain time through the pool, clamped to a sane band. *)
let retry_after_ms t =
  let per = if t.avg_service_s > 0. then t.avg_service_s else 0.02 in
  let backlog = Queue.length t.queue + t.busy + 1 in
  let s = per *. float backlog /. float t.n_workers in
  max 10 (min 5000 (int_of_float (s *. 1000.)))

let submit t ?key job =
  locked t (fun () ->
      if (not t.accepting) || t.stopping then Closed
      else begin
        t.n_submitted <- t.n_submitted + 1;
        Obs.Metrics.incr t.m_submitted;
        let coalesce =
          match key with
          | None -> None
          | Some k -> Hashtbl.find_opt t.inflight k
        in
        match coalesce with
        | Some ticket ->
            ticket.waiters <- ticket.waiters + 1;
            t.n_coalesced <- t.n_coalesced + 1;
            Obs.Metrics.incr t.m_coalesced;
            Accepted { ticket; coalesced = true }
        | None ->
            if Queue.length t.queue >= t.queue_limit then begin
              t.n_shed <- t.n_shed + 1;
              Obs.Metrics.incr t.m_shed;
              Shed
                {
                  queue_depth = Queue.length t.queue;
                  retry_after_ms = retry_after_ms t;
                }
            end
            else begin
              let ticket =
                {
                  key;
                  job = Some job;
                  state = None;
                  cond = Condition.create ();
                  waiters = 1;
                }
              in
              (match key with
              | Some k -> Hashtbl.replace t.inflight k ticket
              | None -> ());
              Queue.add ticket t.queue;
              set_depth t;
              Condition.signal t.work;
              Accepted { ticket; coalesced = false }
            end
      end)

let was_coalesced h = h.coalesced

let outcome_of_finished = function
  | F_reply j -> Reply j
  | F_crashed m -> Crashed m
  | F_aborted m -> Aborted m

let wait t ?deadline handle =
  let ticket = handle.ticket in
  locked t (fun () ->
      let rec loop expired =
        match ticket.state with
        | Some f -> outcome_of_finished f
        | None ->
            if expired () then begin
              ticket.waiters <- ticket.waiters - 1;
              Timed_out
            end
            else begin
              Condition.wait ticket.cond t.mutex;
              loop expired
            end
      in
      match deadline with
      | None -> loop (fun () -> false)
      | Some dl ->
          let entry = (dl, ticket) in
          t.timed <- entry :: t.timed;
          Condition.signal t.watch;
          Fun.protect
            ~finally:(fun () -> t.timed <- List.filter (( != ) entry) t.timed)
            (fun () -> loop (fun () -> Unix.gettimeofday () >= dl)))

type stats = {
  st_workers : int;
  st_queue_depth : int;
  st_busy : int;
  st_submitted : int;
  st_completed : int;
  st_coalesced : int;
  st_shed : int;
  st_abandoned : int;
}

let stats t =
  locked t (fun () ->
      {
        st_workers = t.n_workers;
        st_queue_depth = Queue.length t.queue;
        st_busy = t.busy;
        st_submitted = t.n_submitted;
        st_completed = t.n_completed;
        st_coalesced = t.n_coalesced;
        st_shed = t.n_shed;
        st_abandoned = t.n_abandoned;
      })

let seal t = locked t (fun () -> t.accepting <- false)

let drain t ~deadline =
  let idle () =
    locked t (fun () ->
        t.busy = 0
        && Queue.fold (fun acc tk -> acc && tk.waiters <= 0) true t.queue)
  in
  let rec loop () =
    if idle () then true
    else if Unix.gettimeofday () >= deadline then idle ()
    else begin
      Unix.sleepf 0.005;
      loop ()
    end
  in
  loop ()

let stop t =
  let join_bg =
    locked t (fun () ->
        if t.joined then false
        else begin
          t.joined <- true;
          t.accepting <- false;
          t.stopping <- true;
          (* abort everything still pending so waiters unblock *)
          Queue.iter
            (fun ticket -> finish t ticket (F_aborted "scheduler stopped"))
            t.queue;
          Queue.clear t.queue;
          Hashtbl.iter
            (fun _ ticket ->
              if ticket.state = None then
                finish t ticket (F_aborted "scheduler stopped"))
            (Hashtbl.copy t.inflight);
          set_depth t;
          Condition.broadcast t.work;
          Condition.broadcast t.watch;
          t.busy > 0
        end)
  in
  let join () = List.iter Domain.join t.domains in
  if t.domains <> [] then
    if join_bg then
      (* a worker is stuck in a job nobody wants; don't block on it *)
      ignore (Thread.create join () : Thread.t)
    else join ()
