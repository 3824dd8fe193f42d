exception Worker_failed of exn

let task_us =
  lazy
    (Obs.Metrics.histogram ~help:"Pool task latency in microseconds"
       "omlt_pool_task_us")

let busy_gauge slot =
  Obs.Metrics.gauge
    ~labels:[ ("worker", string_of_int slot) ]
    ~help:"Seconds the pool worker spent running tasks" "omlt_pool_busy_s"

let tasks_counter =
  lazy (Obs.Metrics.counter ~help:"Pool tasks completed" "omlt_pool_tasks_total")

let map ?jobs f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let jobs =
    max 1
      (min n (Option.value jobs ~default:(Domain.recommended_domain_count ())))
  in
  let task_us = Lazy.force task_us in
  let tasks = Lazy.force tasks_counter in
  let run_one x =
    let r = Obs.Metrics.time task_us (fun () -> f x) in
    Obs.Metrics.incr tasks;
    r
  in
  if jobs = 1 || n <= 1 then List.map run_one xs
  else begin
    let results = Array.make n None in
    let failure = Atomic.make None in
    let next = Atomic.make 0 in
    (* captured before spawning: workers feed their spans into the
       caller's trace sink instead of silently dropping them *)
    let parent_trace = Obs.Trace.ambient () in
    let worker slot () =
      let busy = busy_gauge slot in
      let saved = Obs.Trace.ambient () in
      Obs.Trace.install (Option.map Obs.Trace.worker parent_trace);
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && Atomic.get failure = None then begin
          let t0 = Unix.gettimeofday () in
          (try results.(i) <- Some (run_one items.(i))
           with e ->
             (* first failure wins; the rest of the queue is abandoned *)
             ignore (Atomic.compare_and_set failure None (Some e)));
          Obs.Metrics.add_gauge busy (Unix.gettimeofday () -. t0);
          loop ()
        end
      in
      Fun.protect ~finally:(fun () -> Obs.Trace.install saved) loop
    in
    let domains =
      List.init (jobs - 1) (fun slot -> Domain.spawn (worker (slot + 1)))
    in
    worker 0 ();
    List.iter Domain.join domains;
    match Atomic.get failure with
    | Some e -> raise (Worker_failed e)
    | None ->
        Array.to_list
          (Array.map
             (function Some r -> r | None -> assert false)
             results)
  end
