(* Fixed-size domain pool.

   The pool is a plain mutex/condition work queue: [create] parks
   [jobs - 1] worker domains on the queue, [map] pushes one closure
   per input element and then has the calling domain drain the queue
   alongside the workers, so a [jobs]-pool really runs [jobs] tasks at
   a time.  Task closures never raise — each one stores [Ok]/[Error]
   into its own slot of a results array — so the only synchronization
   that matters is the pending-task counter, and result publication is
   ordered by the final mutex hand-off before [map] returns.

   Failure policy: run everything, then re-raise the lowest-indexed
   failure (what a sequential sweep would have hit first), wrapped in
   [Task_failure] with the caller's provenance label. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (* signaled when tasks arrive or on shutdown *)
  finished : Condition.t;  (* signaled when [pending] reaches 0 *)
  queue : (unit -> unit) Queue.t;
  mutable pending : int;  (* submitted tasks not yet completed *)
  mutable closed : bool;
  mutable workers : unit Domain.t array;
}

exception Task_failure of { index : int; label : string; exn : exn }

let () =
  Printexc.register_printer (function
    | Task_failure { index; label; exn } ->
      Some
        (Printf.sprintf "Parallel.Task_failure (task %d [%s]: %s)" index label
           (Printexc.to_string exn))
    | _ -> None)

let default_jobs () = Domain.recommended_domain_count ()

(* run one task and account for its completion; the closure itself
   never raises (map wraps it) *)
let complete t task =
  task ();
  Mutex.lock t.mutex;
  t.pending <- t.pending - 1;
  if t.pending = 0 then Condition.broadcast t.finished;
  Mutex.unlock t.mutex

let rec worker_loop t =
  Mutex.lock t.mutex;
  while Queue.is_empty t.queue && not t.closed do
    Condition.wait t.work t.mutex
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.mutex (* closed: exit *)
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    complete t task;
    worker_loop t
  end

(* the core-count cap below would otherwise make the domain machinery
   untestable on single-core CI runners *)
let force_domains () =
  match Sys.getenv_opt "AWESIM_FORCE_DOMAINS" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let create ?jobs () =
  (* uniform [jobs] convention across the tree: negative is a caller
     bug, 0 means "the recommended count for this machine" *)
  let requested =
    match jobs with
    | None | Some 0 -> default_jobs ()
    | Some j when j < 0 ->
      invalid_arg
        (Printf.sprintf "Parallel.create: jobs must be >= 0 (got %d)" j)
    | Some j -> j
  in
  (* domains beyond the machine's cores only add spawn cost and
     scheduler churn (on a single-core machine, every extra domain
     does): cap at the recommended count.  Results are identical by
     construction, so this is purely an execution choice. *)
  let jobs =
    if force_domains () then requested else Stdlib.min requested (default_jobs ())
  in
  let t =
    { jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      queue = Queue.create ();
      pending = 0;
      closed = false;
      workers = [||] }
  in
  if jobs > 1 then
    t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* run [task 0 .. task (n-1)], all of them, across the pool *)
let execute t n task =
  if t.closed then
    invalid_arg "Parallel.map: pool is shut down"
  else if Array.length t.workers = 0 then
    for i = 0 to n - 1 do
      task i
    done
  else begin
    Mutex.lock t.mutex;
    if t.pending > 0 then begin
      Mutex.unlock t.mutex;
      invalid_arg "Parallel.map: pool already has a map in flight"
    end;
    t.pending <- n;
    for i = 0 to n - 1 do
      Queue.add (fun () -> task i) t.queue
    done;
    Condition.broadcast t.work;
    (* the caller works the queue too, then waits out the stragglers *)
    while not (Queue.is_empty t.queue) do
      let job = Queue.pop t.queue in
      Mutex.unlock t.mutex;
      complete t job;
      Mutex.lock t.mutex
    done;
    while t.pending > 0 do
      Condition.wait t.finished t.mutex
    done;
    Mutex.unlock t.mutex
  end

let mapi ?(label = fun i -> string_of_int i) t f xs =
  let n = Array.length xs in
  if t.closed then invalid_arg "Parallel.map: pool is shut down";
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let task i =
      results.(i) <-
        Some
          (match f i xs.(i) with
          | v -> Ok v
          | exception exn -> Error (exn, Printexc.get_raw_backtrace ()))
    in
    execute t n task;
    (* funnel: the lowest-indexed failure wins, deterministically *)
    Array.iteri
      (fun i slot ->
        match slot with
        | Some (Error (exn, bt)) ->
          Printexc.raise_with_backtrace
            (Task_failure { index = i; label = label i; exn })
            bt
        | Some (Ok _) | None -> ())
      results;
    Array.map
      (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
      results
  end

let map ?label t f xs = mapi ?label t (fun _ x -> f x) xs

let map_reduce ?label t ~map:f ~reduce ~init xs =
  Array.fold_left reduce init (map ?label t f xs)
