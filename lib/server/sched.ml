(* Worker-pool scheduler with request coalescing and backpressure.

   All scheduler state lives under one mutex. Tickets (one per distinct
   computation) carry their own Condition variable on that shared mutex
   so completion wakes exactly the waiters attached to that ticket.

   OCaml's stdlib Condition has no timed wait, so waiters with a
   deadline poll: short sleeps near the deadline, longer ones far from
   it. Waiters without a deadline block on the condition directly. *)

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
  (* lifetime counts, which the registry reads *)
  mutable n_submitted : int;
  mutable n_completed : int;
  mutable n_coalesced : int;
  mutable n_shed : int;
  mutable n_abandoned : int;
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
        finish t ticket (F_aborted "abandoned: all waiters gave up");
        next_wanted t
      end

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
            t.busy <- t.busy - 1;
            finish t ticket outcome);
        loop ()
  in
  loop ()

let create ?workers ?(queue_limit = 64) ?(registry = Obs.Metrics.default) () =
  let n_workers =
    match workers with
    | Some n -> max 1 n
    | None -> max 2 (Domain.recommended_domain_count ())
  in
  let t =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
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
    }
  in
  let counter name read =
    Obs.Metrics.counter_fn ~registry name (fun () -> locked t read)
  in
  let gauge name read =
    Obs.Metrics.gauge_fn ~registry name (fun () -> float (locked t read))
  in
  gauge "omlt_srv_queue_depth" (fun () -> Queue.length t.queue);
  gauge "omlt_srv_busy_workers" (fun () -> t.busy);
  counter "omlt_srv_submitted_total" (fun () -> t.n_submitted);
  counter "omlt_srv_completed_total" (fun () -> t.n_completed);
  counter "omlt_srv_coalesced_total" (fun () -> t.n_coalesced);
  counter "omlt_srv_shed_total" (fun () -> t.n_shed);
  counter "omlt_srv_abandoned_total" (fun () -> t.n_abandoned);
  t.domains <-
    List.init n_workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
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
        let coalesce =
          match key with
          | None -> None
          | Some k -> Hashtbl.find_opt t.inflight k
        in
        match coalesce with
        | Some ticket ->
            ticket.waiters <- ticket.waiters + 1;
            t.n_coalesced <- t.n_coalesced + 1;
            Accepted { ticket; coalesced = true }
        | None ->
            if Queue.length t.queue >= t.queue_limit then begin
              t.n_shed <- t.n_shed + 1;
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
  Mutex.lock t.mutex;
  let finally () = Mutex.unlock t.mutex in
  Fun.protect ~finally (fun () ->
      let rec loop () =
        match ticket.state with
        | Some f -> outcome_of_finished f
        | None -> (
            match deadline with
            | None ->
                Condition.wait ticket.cond t.mutex;
                loop ()
            | Some dl ->
                let remaining = dl -. Unix.gettimeofday () in
                if remaining <= 0. then begin
                  ticket.waiters <- ticket.waiters - 1;
                  Timed_out
                end
                else begin
                  (* no timed Condition.wait in the stdlib: poll, coarse
                     when far from the deadline, fine when close *)
                  let nap =
                    if remaining > 0.2 then min 0.05 (remaining -. 0.15)
                    else 0.004
                  in
                  Mutex.unlock t.mutex;
                  Unix.sleepf nap;
                  Mutex.lock t.mutex;
                  loop ()
                end)
      in
      loop ())

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
          Condition.broadcast t.work;
          t.busy > 0
        end)
  in
  let join () = List.iter Domain.join t.domains in
  if t.domains <> [] then
    if join_bg then
      (* a worker is stuck in a job nobody wants; don't block on it *)
      ignore (Thread.create join () : Thread.t)
    else join ()
