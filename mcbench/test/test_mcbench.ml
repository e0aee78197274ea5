(* The benchmark's own arithmetic: percentile selection, pool
   efficiency, span self time and the closure residual. *)

open Mcbench

let feq = Alcotest.float 1e-9
let range n = List.init n (fun i -> float_of_int (i + 1))

let median_matches_python () =
  Alcotest.check feq "odd" 3.0 (Stat.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check feq "even" 2.5 (Stat.median [ 4.0; 1.0; 3.0; 2.0 ])

let nearest_rank () =
  let xs = range 100 in
  Alcotest.check feq "p99 of 1..100" 99.0 (Stat.percentile 99.0 xs);
  Alcotest.check feq "p50 of 1..100" 50.0 (Stat.percentile 50.0 xs);
  Alcotest.check feq "p100 is the max" 100.0 (Stat.percentile 100.0 xs)

(* A tail needs at least ten samples above its rank: p99 needs 1000
   samples, p90 needs 100. *)
let tail_has_ten_beyond () =
  let ok p n = Alcotest.check feq (Printf.sprintf "p%g of %d" p n)
      (Stat.percentile p (range n)) (Stat.tail p (range n)) in
  let refused p n =
    match Stat.tail p (range n) with
    | _ -> Alcotest.failf "p%g of %d has fewer than ten beyond but was accepted" p n
    | exception Invalid_argument _ -> ()
  in
  Alcotest.(check int) "p99 of 1000: ten beyond" 10 (Stat.beyond 99.0 1000);
  Alcotest.(check int) "p99.9 of 10000: ten beyond" 10 (Stat.beyond 99.9 10000);
  ok 99.0 1000;
  ok 90.0 100;
  ok 95.0 200;
  refused 99.0 999;
  refused 90.0 99;
  refused 50.0 5

let pool_efficiency () =
  Alcotest.check feq "two busy workers" 1.0
    (Stat.pool_efficiency ~serial_s:4.0 ~jobs:2 ~wall_s:2.0);
  Alcotest.check feq "one idle worker" 0.5
    (Stat.pool_efficiency ~serial_s:2.0 ~jobs:2 ~wall_s:2.0);
  Alcotest.check_raises "jobs < 1" (Invalid_argument "Stat.pool_efficiency") (fun () ->
      ignore (Stat.pool_efficiency ~serial_s:1.0 ~jobs:0 ~wall_s:1.0))

(* A fake clock that advances one second per reading makes every span's
   bounds predictable. *)
let stepping_clock () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := v +. 1.0;
    v

let self_time_and_closure () =
  let sp = Span.create ~clock:(stepping_clock ()) ~enabled:true () in
  (* root: 0 .. 9; unit: 1 .. 6 holding a: 2 .. 5 holding b: 3 .. 4;
     c: 7 .. 8. Only the mcbench.* spans are the benchmark's own. *)
  Span.record sp "mcbench.root" (fun () ->
      Span.record sp "mcbench.unit" (fun () ->
          Span.record sp "a" (fun () -> Span.record sp "b" (fun () -> ())));
      Span.record sp "c" (fun () -> ()));
  let spans = Span.spans sp in
  let self = List.map (fun (s, self) -> (s.Span.name, self)) (Span.self_times spans) in
  Alcotest.check feq "root self" 3.0 (List.assoc "mcbench.root" self);
  Alcotest.check feq "unit self" 2.0 (List.assoc "mcbench.unit" self);
  Alcotest.check feq "a self" 2.0 (List.assoc "a" self);
  Alcotest.check feq "b self" 1.0 (List.assoc "b" self);
  Alcotest.check feq "c self" 1.0 (List.assoc "c" self);
  let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 self in
  Alcotest.check feq "self times add up to the root's wall" 9.0 sum;
  Alcotest.check feq "unaccounted = own self time / root wall" (5.0 /. 9.0)
    (Span.unaccounted_frac spans)

let disabled_records_nothing () =
  let sp = Span.create ~enabled:false () in
  Alcotest.(check int) "value passes through" 3 (Span.record sp "x" (fun () -> 3));
  Alcotest.(check int) "no spans" 0 (List.length (Span.spans sp));
  Alcotest.check feq "no roots, nothing unaccounted" 0.0 (Span.unaccounted_frac [])

let unit_ids_and_exceptions () =
  let sp = Span.create ~clock:(stepping_clock ()) ~enabled:true () in
  Span.set_unit sp 7;
  (try Span.record sp "boom" (fun () -> failwith "x") with Failure _ -> ());
  Span.record sp "after" (fun () -> ());
  match Span.spans sp with
  | [ boom; after ] ->
    Alcotest.(check int) "unit id" 7 boom.Span.unit_id;
    Alcotest.(check int) "raising span closed, next is a root" (-1) after.Span.parent
  | _ -> Alcotest.fail "expected two spans"

let () =
  Alcotest.run "mcbench"
    [ ( "stat",
        [ Alcotest.test_case "median" `Quick median_matches_python;
          Alcotest.test_case "nearest rank" `Quick nearest_rank;
          Alcotest.test_case "tail has ten beyond" `Quick tail_has_ten_beyond;
          Alcotest.test_case "pool efficiency" `Quick pool_efficiency ] );
      ( "span",
        [ Alcotest.test_case "self time and closure" `Quick self_time_and_closure;
          Alcotest.test_case "disabled" `Quick disabled_records_nothing;
          Alcotest.test_case "unit ids and exceptions" `Quick unit_ids_and_exceptions ] ) ]
