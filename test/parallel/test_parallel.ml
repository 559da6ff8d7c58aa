(* The domain pool's contract: ordered results, lowest-index failure
   funneling, schedule-independence, reusability, the core-count cap.
   The suite forces real worker domains even on single-core machines
   so the cross-domain paths are exercised wherever CI runs. *)

let () = Unix.putenv "AWESIM_FORCE_DOMAINS" "1"

let check = Alcotest.check

(* a mildly uneven workload, so tasks finish out of order under real
   parallelism *)
let work i =
  let acc = ref (float_of_int i) in
  for k = 1 to 1000 + (317 * (i mod 7)) do
    acc := !acc +. (1. /. float_of_int k)
  done;
  !acc

let test_ordered_map () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      let xs = Array.init 100 Fun.id in
      let expected = Array.map work xs in
      let got = Parallel.map pool work xs in
      check (Alcotest.array (Alcotest.float 0.)) "input order" expected got)

let test_jobs_equivalence () =
  let xs = Array.init 64 Fun.id in
  let run jobs = Parallel.with_pool ~jobs (fun p -> Parallel.map p work xs) in
  let r1 = run 1 and r4 = run 4 in
  check Alcotest.bool "bit-identical across jobs" true (r1 = r4)

let test_mapi_index () =
  Parallel.with_pool ~jobs:3 (fun pool ->
      let got = Parallel.mapi pool (fun i x -> i + x) (Array.make 20 100) in
      check (Alcotest.array Alcotest.int) "index threading"
        (Array.init 20 (fun i -> i + 100))
        got)

let test_lowest_index_failure () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      match
        Parallel.map
          ~label:(fun i -> Printf.sprintf "task-%d" i)
          pool
          (fun i -> if i = 3 || i = 10 then failwith "boom" else i)
          (Array.init 16 Fun.id)
      with
      | _ -> Alcotest.fail "expected Task_failure"
      | exception Parallel.Task_failure { index; label; exn } ->
        check Alcotest.int "lowest failing index" 3 index;
        check Alcotest.string "label" "task-3" label;
        check Alcotest.bool "carries the original exception" true
          (exn = Failure "boom"))

let test_siblings_complete () =
  (* a failure must not abort sibling tasks: every slot runs *)
  let ran = Array.make 32 false in
  Parallel.with_pool ~jobs:4 (fun pool ->
      (match
         Parallel.map pool
           (fun i ->
             ran.(i) <- true;
             if i = 0 then failwith "first task fails")
           (Array.init 32 Fun.id)
       with
      | _ -> Alcotest.fail "expected Task_failure"
      | exception Parallel.Task_failure _ -> ());
      check Alcotest.bool "all siblings ran" true
        (Array.for_all Fun.id ran))

let test_map_reduce () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      let n = 200 in
      let total =
        Parallel.map_reduce pool
          ~map:(fun i -> i * i)
          ~reduce:( + ) ~init:0
          (Array.init n Fun.id)
      in
      check Alcotest.int "sum of squares" (n * (n - 1) * ((2 * n) - 1) / 6)
        total)

let test_pool_reuse () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      for round = 1 to 5 do
        let got = Parallel.map pool (fun x -> x * round) (Array.init 10 Fun.id) in
        check (Alcotest.array Alcotest.int)
          (Printf.sprintf "round %d" round)
          (Array.init 10 (fun i -> i * round))
          got
      done)

let test_empty_and_singleton () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      check (Alcotest.array Alcotest.int) "empty" [||]
        (Parallel.map pool (fun x -> x) [||]);
      check (Alcotest.array Alcotest.int) "singleton" [| 7 |]
        (Parallel.map pool (fun x -> x + 1) [| 6 |]))

let test_sequential_fallback () =
  let pool = Parallel.create ~jobs:1 () in
  let got = Parallel.map pool (fun x -> x * 2) (Array.init 8 Fun.id) in
  check (Alcotest.array Alcotest.int) "jobs=1 works"
    (Array.init 8 (fun i -> 2 * i)) got;
  Parallel.shutdown pool;
  Parallel.shutdown pool (* idempotent *);
  (* a shut-down pool is dead: mapping on it is a lifecycle bug, not a
     silent sequential run *)
  (match Parallel.map pool (fun x -> x + 1) [| 1; 2 |] with
  | _ -> Alcotest.fail "map on a shut-down pool must raise"
  | exception Invalid_argument _ -> ());
  (* even an empty map is rejected — uniformity over array size *)
  match Parallel.map pool Fun.id ([||] : int array) with
  | _ -> Alcotest.fail "empty map on a shut-down pool must raise"
  | exception Invalid_argument _ -> ()

let test_jobs_validation () =
  (* 0 = the machine's recommended count, negatives are caller bugs *)
  Parallel.with_pool ~jobs:0 (fun pool ->
      check Alcotest.int "jobs=0 means recommended"
        (Parallel.default_jobs ())
        (Parallel.jobs pool));
  match Parallel.create ~jobs:(-3) () with
  | _ -> Alcotest.fail "negative jobs must raise"
  | exception Invalid_argument _ -> ()

let test_jobs_accessor () =
  Parallel.with_pool ~jobs:4 (fun pool ->
      check Alcotest.int "jobs" 4 (Parallel.jobs pool));
  check Alcotest.bool "default_jobs >= 1" true (Parallel.default_jobs () >= 1)

(* without forcing, a pool never runs more domains than the machine has
   cores; forcing restores the requested count *)
let test_jobs_cap () =
  let cores = Parallel.default_jobs () in
  let forcing v f =
    Unix.putenv "AWESIM_FORCE_DOMAINS" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "AWESIM_FORCE_DOMAINS" "1") f
  in
  forcing "0" (fun () ->
      Parallel.with_pool ~jobs:(cores + 1) (fun pool ->
          check Alcotest.int "capped at the core count" cores (Parallel.jobs pool);
          check (Alcotest.array Alcotest.int) "capped pool maps"
            (Array.init 10 (fun i -> i + 1))
            (Parallel.map pool succ (Array.init 10 Fun.id)));
      Parallel.with_pool ~jobs:1 (fun pool ->
          check Alcotest.int "below the cap: as requested" 1 (Parallel.jobs pool)));
  forcing "1" (fun () ->
      Parallel.with_pool ~jobs:(cores + 1) (fun pool ->
          check Alcotest.int "forced: as requested" (cores + 1) (Parallel.jobs pool)))

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "ordered map" `Quick test_ordered_map;
          Alcotest.test_case "jobs equivalence" `Quick test_jobs_equivalence;
          Alcotest.test_case "mapi index" `Quick test_mapi_index;
          Alcotest.test_case "lowest-index failure" `Quick
            test_lowest_index_failure;
          Alcotest.test_case "siblings complete" `Quick test_siblings_complete;
          Alcotest.test_case "map_reduce" `Quick test_map_reduce;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "empty and singleton" `Quick
            test_empty_and_singleton;
          Alcotest.test_case "sequential fallback" `Quick
            test_sequential_fallback;
          Alcotest.test_case "jobs validation" `Quick test_jobs_validation;
          Alcotest.test_case "jobs accessor" `Quick test_jobs_accessor;
          Alcotest.test_case "jobs capped at the core count" `Quick
            test_jobs_cap ] ) ]
