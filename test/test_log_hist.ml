(* Tests for Ixtelemetry.Log_hist, the log-linear latency histogram
   that every experiment records into: quantile accuracy (<= 1/32
   relative error from 32 sub-buckets per power of two), exact
   min/max/mean, merge and clear, plus two qcheck properties. *)

module Log_hist = Ixtelemetry.Log_hist

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- Log-linear histogram ---------------- *)

let test_hist_percentiles () =
  let h = Log_hist.create () in
  for v = 1 to 100_000 do
    Log_hist.record h v
  done;
  check_int "count" 100_000 (Log_hist.count h);
  check_int "min exact" 1 (Log_hist.min_value h);
  check_int "max exact" 100_000 (Log_hist.max_value h);
  Alcotest.(check (float 1.0)) "mean exact" 50_000.5 (Log_hist.mean h);
  (* Log-linear with 32 sub-buckets: <= 1/32 relative quantile error. *)
  List.iter
    (fun q ->
      let expected = q *. 100_000. in
      let got = float_of_int (Log_hist.quantile h q) in
      let rel = Float.abs (got -. expected) /. expected in
      if rel > 1. /. 32. then
        Alcotest.failf "q=%.2f: got %.0f, expected %.0f (rel err %.3f)" q got
          expected rel)
    [ 0.25; 0.5; 0.9; 0.99 ]

let test_hist_merge () =
  let a = Log_hist.create () and b = Log_hist.create () in
  Log_hist.record_n a 100 5;
  Log_hist.record b 1_000_000;
  Log_hist.merge_into ~src:b ~dst:a;
  check_int "merged count" 6 (Log_hist.count a);
  check_int "merged max" 1_000_000 (Log_hist.max_value a);
  check_int "merged min" 100 (Log_hist.min_value a)

let test_hist_exact_small () =
  let h = Log_hist.create () in
  List.iter (Log_hist.record h) [ 1; 2; 3; 4; 5 ];
  check_int "count" 5 (Log_hist.count h);
  check_int "p50 of 1..5" 3 (Log_hist.percentile h 50.);
  check_int "max" 5 (Log_hist.max_value h);
  check_int "min" 1 (Log_hist.min_value h);
  Alcotest.(check (float 0.001)) "mean" 3.0 (Log_hist.mean h)

let test_hist_quantiles () =
  let h = Log_hist.create () in
  for v = 1 to 10_000 do
    Log_hist.record h v
  done;
  let p99 = Log_hist.percentile h 99. in
  check_bool "p99 relative error < 5%"
    true
    (float_of_int (abs (p99 - 9_900)) /. 9_900. < 0.05);
  let p50 = Log_hist.percentile h 50. in
  check_bool "p50 relative error < 5%"
    true
    (float_of_int (abs (p50 - 5_000)) /. 5_000. < 0.05)

let test_hist_clear () =
  let h = Log_hist.create () in
  Log_hist.record h 42;
  Log_hist.clear h;
  check_bool "empty after clear" true (Log_hist.is_empty h);
  check_int "quantile of empty" 0 (Log_hist.quantile h 0.99)

let prop_hist_bounded_error =
  QCheck.Test.make ~name:"histogram p100 within 1/32 of true max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 100) (int_bound 1_000_000_000))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Log_hist.create () in
      List.iter (Log_hist.record h) values;
      let true_max = List.fold_left max 0 values in
      let est = Log_hist.quantile h 1.0 in
      est <= true_max && float_of_int (true_max - est) <= (float_of_int true_max /. 32.) +. 1.)

let prop_hist_quantile_monotone =
  QCheck.Test.make ~name:"histogram quantiles monotone in q" ~count:100
    QCheck.(list_of_size Gen.(int_range 2 60) (int_bound 10_000_000))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Log_hist.create () in
      List.iter (Log_hist.record h) values;
      let qs = [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
      let vs = List.map (Log_hist.quantile h) qs in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
        | _ -> true
      in
      nondecreasing vs)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "log_hist"
    [
      ( "histogram",
        [
          Alcotest.test_case "percentile accuracy" `Quick test_hist_percentiles;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "exact small values" `Quick test_hist_exact_small;
          Alcotest.test_case "quantile accuracy" `Quick test_hist_quantiles;
          Alcotest.test_case "clear" `Quick test_hist_clear;
          qt prop_hist_bounded_error;
          qt prop_hist_quantile_monotone;
        ] );
    ]
