(* Tests of the benchmark's own measuring rules. *)

let check_float = Alcotest.(check (float 1e-9))

(* --- the percentile rule --- *)

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let test_tail_rule () =
  let t = Stats.tail (ramp 1000) in
  Alcotest.(check int) "1000 samples support p99" 99 t.Stats.t_pct;
  check_float "p99 of 1..1000" 990.0 t.Stats.t_value;
  Alcotest.(check int) "sample count" 1000 t.Stats.t_samples;
  let t = Stats.tail (ramp 51) in
  Alcotest.(check int) "51 samples support p80 only" 80 t.Stats.t_pct;
  Alcotest.(check bool) "ten samples beyond it" true (Stats.beyond 51 80.0 >= 10);
  Alcotest.(check bool) "p81 has fewer" true (Stats.beyond 51 81.0 < 10);
  let t = Stats.tail (ramp 999) in
  Alcotest.(check int) "999 samples fall short of p99" 98 t.Stats.t_pct;
  let t = Stats.tail (ramp 12) in
  Alcotest.(check int) "tiny samples report the median" 50 t.Stats.t_pct

let test_median () =
  check_float "odd" 3.0 (Stats.median (Stats.sorted [ 5.0; 1.0; 3.0; 2.0; 4.0 ]));
  check_float "even: mean of the middle two" 2.5 (Stats.median (Stats.sorted [ 4.0; 1.0; 3.0; 2.0 ]));
  check_float "two runs: their mean, not the faster" 3.0 (Stats.median (Stats.sorted [ 4.0; 2.0 ]));
  Alcotest.(check bool) "empty" true (Float.is_nan (Stats.median [||]))

(* --- seeded schedule and stream --- *)

let test_schedule_repeats () =
  let a = Load.arrivals ~seed:7 ~rate:200 ~n:500 in
  let b = Load.arrivals ~seed:7 ~rate:200 ~n:500 in
  Alcotest.(check (array (float 0.0))) "same seed, same schedule" a b;
  let c = Load.arrivals ~seed:8 ~rate:200 ~n:500 in
  Alcotest.(check bool) "another seed differs" true (a <> c);
  Alcotest.(check bool) "ascending" true
    (Array.for_all Fun.id (Array.init 499 (fun i -> a.(i) < a.(i + 1))));
  (* 500 exponential gaps of mean 5 ms last about 2.5 s *)
  let span = a.(499) in
  Alcotest.(check bool) "rate holds" true (span > 2.0 && span < 3.0);
  let s1 = Load.stream ~seed:7 ~salt:200 ~programs:18 ~n:300 in
  let s2 = Load.stream ~seed:7 ~salt:200 ~programs:18 ~n:300 in
  Alcotest.(check bool) "same seed, same request stream" true (s1 = s2);
  Alcotest.(check bool) "programs in range" true
    (Array.for_all (fun (p, _) -> p >= 0 && p < 18) s1)

(* --- the open-loop generator on a simulated clock and server --- *)

(* a single FIFO server with fixed service times, answering on the
   simulated clock; [sleep_until] advances the clock and delivers every
   reply due by then *)
let simulate ?(oversleep = 0.0) ~service due =
  let clock = ref 0.0 in
  let free_at = ref 0.0 in
  let pending = ref [] in
  let deliver upto =
    let ready, later = List.partition (fun (t, _) -> t <= upto) !pending in
    pending := later;
    List.iter
      (fun (t, k) ->
        clock := Float.max !clock t;
        k true)
      (List.sort compare ready)
  in
  let sleep_until t =
    deliver (t +. oversleep);
    clock := Float.max !clock (t +. oversleep)
  in
  let post i k =
    let start = Float.max !clock !free_at in
    free_at := start +. service i;
    pending := (!free_at, k) :: !pending
  in
  let now () = !clock in
  let result = ref None in
  (* drive returns only once every reply is in: flush the rest *)
  let post_and_flush i k =
    post i k;
    if i = Array.length due - 1 then deliver infinity
  in
  result := Some (Load.drive ~now ~sleep_until ~post:post_and_flush due);
  Option.get !result

let test_latency_from_due () =
  (* request 0 stalls the server for 100 ms; requests 1..3 are due at
     10 ms intervals and each takes 1 ms, so their latency includes the
     wait the stall imposed, counted from their due times *)
  let due = [| 0.0; 0.010; 0.020; 0.030 |] in
  let service i = if i = 0 then 0.100 else 0.001 in
  let s = simulate ~service due in
  check_float "stalled request" 100.0 s.Load.latency_ms.(0);
  check_float "queued behind the stall" 91.0 s.Load.latency_ms.(1);
  check_float "second queued" 82.0 s.Load.latency_ms.(2);
  check_float "third queued" 73.0 s.Load.latency_ms.(3);
  check_float "wall from first due to last reply" 0.103 s.Load.wall_s

let test_late_generator () =
  (* a generator that wakes 5 ms late still times from the due time *)
  let due = [| 0.0; 1.0 |] in
  let s = simulate ~oversleep:0.005 ~service:(fun _ -> 0.002) due in
  check_float "late send counted" 7.0 s.Load.latency_ms.(1);
  check_float "lateness reported" 5.0 s.Load.late_ms_max

let test_backlog_rule () =
  let steady = Array.init 400 (fun i -> i mod 5) in
  Alcotest.(check bool) "a short queue is steady" false (Load.backlog_grows steady);
  let growing = Array.init 400 (fun i -> i / 4) in
  Alcotest.(check bool) "a queue that climbs grows" true (Load.backlog_grows growing);
  (* an overloaded step: 1 ms gaps, 2 ms service *)
  let due = Array.init 400 (fun i -> float_of_int i *. 0.001) in
  let s = simulate ~service:(fun _ -> 0.002) due in
  let v = Load.judge ~slo_ms:1000.0 [ s ] in
  Alcotest.(check bool) "overload grows the backlog" true v.Load.v_grows;
  Alcotest.(check bool) "so the step fails even under a loose limit" false v.Load.v_pass;
  let s = simulate ~service:(fun _ -> 0.0005) due in
  let v = Load.judge ~slo_ms:1000.0 [ s ] in
  Alcotest.(check bool) "a server that keeps up passes" true v.Load.v_pass

let test_windows () =
  (* three windows of 1000 sent at different times; a stall of 20
     requests inflates the last one *)
  let window ~stalled =
    let n = Load.window in
    {
      Load.due = Array.make n 0.0;
      latency_ms =
        Array.init n (fun i -> if stalled && i >= n - 20 then 500.0 else float_of_int (i mod 10));
      ok = Array.make n true;
      late_ms_max = 0.0;
      outstanding = Array.make n 1;
      wall_s = 5.0;
    }
  in
  let windows = [ window ~stalled:false; window ~stalled:false; window ~stalled:true ] in
  let v = Load.judge ~slo_ms:100.0 windows in
  Alcotest.(check int) "three windows" 3 v.Load.v_windows;
  (* 3000 latencies pooled: 298 of each of 0..9, and the 20 stalled *)
  Alcotest.(check int) "every window's samples" 3000 v.Load.v_tail.Stats.t_samples;
  Alcotest.(check int) "pooled they support a p99" 99 v.Load.v_tail.Stats.t_pct;
  check_float "pooled p99: the 20 stalled are beyond it" 9.0 v.Load.v_tail.Stats.t_value;
  check_float "pooled median" 5.0 v.Load.v_median_ms;
  Alcotest.(check bool) "one stalled window does not fail the rate" true v.Load.v_pass;
  let v = Load.judge ~slo_ms:100.0 [ window ~stalled:true; window ~stalled:true ] in
  Alcotest.(check bool) "stalls in most windows fail it" false v.Load.v_pass

(* --- self time --- *)

let span ?(owner = "j") id parent start stop =
  { Spans.id; parent; name = Printf.sprintf "s%d" id; owner; start; stop; minor_words = 0.0 }

let test_self_time () =
  let spans =
    [
      span 0 (-1) 0.0 10.0;
      span 1 0 1.0 4.0;
      span 2 0 3.0 6.0;  (* overlaps its sibling: covered once *)
      span 3 1 2.0 3.0;  (* grandchild: charged to span 1 only *)
      span ~owner:"k" 1 0 0.0 9.0;  (* another job's span 1 *)
    ]
  in
  let self = Spans.self_times spans in
  let get owner id =
    snd (List.find (fun ((s : Spans.span), _) -> s.Spans.id = id && s.Spans.owner = owner) self)
  in
  check_float "parent minus covered children" 5.0 (get "j" 0);
  check_float "child minus grandchild" 2.0 (get "j" 1);
  check_float "leaf" 3.0 (get "j" 2);
  check_float "grandchild" 1.0 (get "j" 3);
  check_float "other owners do not nest" 9.0 (get "k" 1)

let test_recorder () =
  let r = Spans.recorder "job" in
  Spans.with_span r "outer" (fun () -> Spans.with_span r "inner" (fun () -> ()));
  match Spans.spans r with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner first to finish" "inner" inner.Spans.name;
    Alcotest.(check int) "parent link" outer.Spans.id inner.Spans.parent;
    Alcotest.(check int) "top level" (-1) outer.Spans.parent;
    Alcotest.(check bool) "nested in time" true
      (outer.Spans.start <= inner.Spans.start && inner.Spans.stop <= outer.Spans.stop)
  | _ -> Alcotest.fail "expected two spans"

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "load",
        [
          Alcotest.test_case "seeded schedule and stream repeat" `Quick test_schedule_repeats;
          Alcotest.test_case "latency from the due time" `Quick test_latency_from_due;
          Alcotest.test_case "late generator" `Quick test_late_generator;
          Alcotest.test_case "backlog growth fails a step" `Quick test_backlog_rule;
          Alcotest.test_case "windows pooled" `Quick test_windows;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
        ] );
    ]
