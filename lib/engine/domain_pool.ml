(* A fixed-size pool of OCaml 5 domains for fanning independent
   simulations out over cores.

   The unit of work is a *batch*: [map pool fs] publishes the tasks as
   an index-addressed array, wakes the workers, and participates in
   draining the queue itself (so a pool of [jobs] runs [jobs]-wide with
   only [jobs - 1] spawned domains, and a [jobs = 1] pool degenerates
   to plain inline iteration).  Workers claim a *chunk* of contiguous
   unclaimed indices under the pool mutex: small batches degenerate to
   one index per claim (keeping load balance when a handful of whole
   simulations dominate the wall clock), while wide fan-outs amortize
   the lock over [count / (jobs * 8)] tasks per round trip.

   Result and error slots are padded to one cache line per task
   ([stride] words): workers publish results concurrently, and adjacent
   one-word slots would otherwise ping-pong the line between cores on
   every write barrier.

   Determinism contract: results are collected *by submission index*,
   so [map] returns exactly [List.map (fun f -> f ()) fs] regardless of
   which domain ran which task or in what order they finished.  Output
   ordering (and hence every [Report] table built from the results) is
   identical to the sequential run.

   Exceptions raised by a task are captured with their backtrace and
   re-raised in the submitter once the batch has drained — the
   lowest-index failure wins, again for determinism.  Tasks must not
   submit to a pool from inside a pool task (the simulations being
   fanned out must stay independent); nested submission is detected via
   a domain-local flag and rejected with [Invalid_argument].

   Profitability: spawning more domains than the machine has cores is a
   strict loss in OCaml 5 — every minor collection is a stop-the-world
   rendezvous across all running domains, so oversubscribed domains
   convoy on the GC instead of computing.  [create] therefore clamps
   [jobs] to [Domain.recommended_domain_count ()]; on a single-core
   container a [jobs = 4] request degenerates to inline sequential
   execution (identical results, no domain/rendezvous overhead), while
   on a real multicore host the requested width is honoured up to the
   core count. *)

(* 8 words = 64 bytes, one cache line on every target we run on. *)
let stride = 8

type batch = {
  run_task : int -> unit;  (** monomorphic wrapper; never raises *)
  count : int;
  chunk : int;  (** task indices claimed per mutex round trip *)
  mutable next : int;  (** next unclaimed task index *)
  mutable completed : int;
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (** workers: a batch (or stop) may be available *)
  finished : Condition.t;  (** submitter: batch completion *)
  mutable batch : batch option;
  mutable stop : bool;
  mutable domains : unit Domain.t array;
}

(* Set while a domain is executing a pool task; consulted by [map] to
   reject nested submission. *)
let in_task_key = Domain.DLS.new_key (fun () -> ref false)

(* Drain tasks from [b] until none are left unclaimed.  Called (and
   returns) with [t.mutex] held. *)
let drain t b =
  while b.next < b.count do
    let lo = b.next in
    let hi = Int.min b.count (lo + b.chunk) in
    b.next <- hi;
    Mutex.unlock t.mutex;
    for i = lo to hi - 1 do
      b.run_task i
    done;
    Mutex.lock t.mutex;
    b.completed <- b.completed + (hi - lo);
    if b.completed = b.count then Condition.broadcast t.finished
  done

let worker t =
  Mutex.lock t.mutex;
  let rec loop () =
    if t.stop then Mutex.unlock t.mutex
    else
      match t.batch with
      | Some b when b.next < b.count ->
          drain t b;
          loop ()
      | Some _ | None ->
          Condition.wait t.work t.mutex;
          loop ()
  in
  loop ()

let create ~jobs () =
  if jobs < 1 then invalid_arg "Domain_pool.create: jobs must be >= 1";
  (* Choose the profitable width automatically: never oversubscribe the
     machine (see the module comment on the stop-the-world minor GC). *)
  let jobs = Int.min jobs (Domain.recommended_domain_count ()) in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = None;
      stop = false;
      domains = [||];
    }
  in
  t.domains <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.mutex;
  if t.stop then Mutex.unlock t.mutex
  else begin
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end

let map t fs =
  if !(Domain.DLS.get in_task_key) then
    invalid_arg "Domain_pool.map: nested submit from inside a pool task";
  let tasks = Array.of_list fs in
  let n = Array.length tasks in
  if n = 0 then []
  else begin
    (* One cache line per slot: concurrent publishes from different
       domains must not share a line (false sharing on the write
       barrier turned the jobs=4 harness into a slowdown). *)
    let results = Array.make (n * stride) None in
    let errors = Array.make (n * stride) None in
    let run_task i =
      let flag = Domain.DLS.get in_task_key in
      flag := true;
      (match tasks.(i) () with
      | v -> results.(i * stride) <- Some v
      | exception e ->
          errors.(i * stride) <- Some (e, Printexc.get_raw_backtrace ()));
      flag := false
    in
    let chunk = Int.max 1 (n / (t.jobs * 8)) in
    let b = { run_task; count = n; chunk; next = 0; completed = 0 } in
    Mutex.lock t.mutex;
    if t.stop then begin
      Mutex.unlock t.mutex;
      invalid_arg "Domain_pool.map: pool is shut down"
    end;
    (match t.batch with
    | Some _ ->
        Mutex.unlock t.mutex;
        invalid_arg "Domain_pool.map: a batch is already in flight"
    | None -> ());
    t.batch <- Some b;
    Condition.broadcast t.work;
    (* The submitting domain works the queue too. *)
    drain t b;
    while b.completed < b.count do
      Condition.wait t.finished t.mutex
    done;
    t.batch <- None;
    Mutex.unlock t.mutex;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    List.init n (fun i ->
        match results.(i * stride) with
        | Some v -> v
        | None -> assert false (* no error and no result is impossible *))
  end

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map_jobs ~jobs fs =
  if jobs < 1 then invalid_arg "Domain_pool.map_jobs: jobs must be >= 1";
  let jobs = Int.min jobs (Domain.recommended_domain_count ()) in
  if jobs <= 1 then List.map (fun f -> f ()) fs
  else with_pool ~jobs (fun t -> map t fs)
