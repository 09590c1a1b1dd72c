(* The benchmark's own arithmetic and instruments. *)

open Tcm_stm
open Perfbench

(* ---- the CM wrapper is transparent -------------------------------- *)

(* A scripted duel: both priority directions, escalating attempt
   counts, and the waiting flag greedy's rule 1 keys on. *)
let duel = [ (true, 0, false); (false, 0, false); (false, 1, false); (false, 2, true);
             (true, 1, true); (false, 5, false); (true, 0, false); (false, 9, true) ]

let replay consult ~older ~younger =
  List.map
    (fun (me_older, attempts, waiting) ->
      let me, other = if me_older then (older, younger) else (younger, older) in
      Atomic.set other.Txn.waiting waiting;
      let d = consult ~me ~other ~attempts in
      Atomic.set other.Txn.waiting false;
      d)
    duel

let t_wrapper_transparent () =
  let older = Txn.new_attempt (Txn.new_shared ()) in
  let younger = Txn.new_attempt (Txn.new_shared ()) in
  let bare : Cm_intf.factory = (module Tcm_core.Greedy) in
  let run consult f = replay (consult (Cm_intf.instantiate f)) ~older ~younger in
  let expect = run Runtime.consult bare in
  ignore (Cm_wrap.take ());
  List.iter
    (fun (name, consult) ->
      let got = run consult Cm_wrap.greedy in
      Alcotest.(check int) (name ^ " length") (List.length expect) (List.length got);
      List.iteri
        (fun k (e, g) ->
          if e <> g then Alcotest.failf "%s step %d: %a <> %a" name k Decision.pp e Decision.pp g)
        (List.combine expect got))
    [ ("locator", Runtime.consult); ("tl2", Tl2.consult) ];
  Alcotest.(check int) "bare greedy agrees across backends" 0
    (compare expect (run Tl2.consult bare));
  (* Each wrapped instance counted every resolve of its replay. *)
  let spans = Cm_wrap.take () in
  Alcotest.(check int) "two instances" 2 (List.length spans);
  List.iter
    (fun (s : Cm_wrap.span) ->
      Alcotest.(check int) "resolves" (List.length duel) s.resolves;
      Alcotest.(check int) "verdicts partition resolves" s.resolves
        (s.abort_other + s.abort_self + s.blocks + s.backoffs))
    spans

let t_wrapper_live () =
  (* Spans under a real runtime: one commit per transaction, attempts
     = commits + aborts, no conflicts on one domain. *)
  List.iter
    (fun backend ->
      ignore (Cm_wrap.take ());
      let rt = Stm.create ~backend Cm_wrap.greedy in
      let v = Stm.Tvar.make 0 in
      for _ = 1 to 100 do
        Stm.atomically rt (fun tx -> Stm.write tx v (Stm.read tx v + 1))
      done;
      match Cm_wrap.take () with
      | [ s ] ->
          Alcotest.(check int) "commits" 100 s.commits;
          Alcotest.(check int) "attempts" (s.commits + s.aborts) s.attempts;
          Alcotest.(check int) "resolves" 0 s.resolves;
          Alcotest.(check bool) "self time positive" true (s.commit_self_ns > 0);
          Alcotest.(check int) "opens: one per commit at least" 100 (min 100 s.opens)
      | l -> Alcotest.failf "expected one span record, got %d" (List.length l))
    [ Stm.Locator; Stm.Tl2_backend ]

(* ---- percentiles and the ten-beyond rule --------------------------- *)

let t_percentiles () =
  let a = Pct.sorted (Array.init 100 (fun i -> float_of_int (100 - i))) in
  Alcotest.(check (float 0.)) "p50 nearest rank" 50. (Pct.at a 50.);
  Alcotest.(check (float 0.)) "p99" 99. (Pct.at a 99.);
  Alcotest.(check (float 0.)) "p100" 100. (Pct.at a 100.);
  Alcotest.(check (float 0.)) "p0 clamps to min" 1. (Pct.at a 0.);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Pct.at [||] 50.));
  Alcotest.(check int) "beyond p99 of 100" 1 (Pct.beyond 100 99.);
  Alcotest.(check int) "beyond p90 of 100" 10 (Pct.beyond 100 90.);
  Alcotest.(check int) "beyond p99 of 1000" 10 (Pct.beyond 1000 99.)

let t_top () =
  let top = Alcotest.(option (pair (float 0.) int)) in
  Alcotest.check top "9 samples: nothing" None (Pct.top 9);
  Alcotest.check top "20 samples: p50" (Some (50., 10)) (Pct.top 20);
  Alcotest.check top "100 samples: p90" (Some (90., 10)) (Pct.top 100);
  Alcotest.check top "999 samples: p90" (Some (90., 99)) (Pct.top 999);
  Alcotest.check top "1000 samples: p99" (Some (99., 10)) (Pct.top 1000);
  Alcotest.check top "200k samples: p99.99" (Some (99.99, 20)) (Pct.top 200_000)

(* ---- closure arithmetic -------------------------------------------- *)

let t_closure () =
  Alcotest.(check (float 1e-12)) "exact cover" 0. (Closure.residual_frac ~total:10. [ 4.; 6. ]);
  Alcotest.(check (float 1e-12)) "gap" 0.25 (Closure.residual_frac ~total:8. [ 2.; 4. ]);
  Alcotest.(check (float 1e-12)) "overlap" (-0.5) (Closure.residual_frac ~total:4. [ 3.; 3. ]);
  Alcotest.(check bool) "zero total" true (Float.is_nan (Closure.residual_frac ~total:0. [ 1. ]));
  Alcotest.(check bool) "within" true (Closure.within ~lo:0. ~hi:0.1 0.05);
  Alcotest.(check bool) "nan is not within" false (Closure.within ~lo:0. ~hi:0.1 nan);
  Alcotest.(check bool) "below" false (Closure.within ~lo:0. ~hi:0.1 (-0.01))

(* ---- result line round-trip ----------------------------------------- *)

let t_roundtrip () =
  let r =
    {
      Out.correct = true;
      attempted = 123456;
      failed = 7;
      metrics =
        [
          Out.metric "ops_per_s.locator" "1/s" 182644.20035321417;
          Out.metric "p50_us.tl2" "us" 0.1;
          Out.metric "setup_s" "s" 1e-7;
          Out.metric "odd \"name\"\\" "us/s" 3.;
          Out.metric "big" "count" 1.7976931348623157e308;
        ];
    }
  in
  let s = Out.to_json r in
  Alcotest.(check bool) "one line" false (String.contains s '\n');
  let module J = Tcm_workload.Report.Json in
  let j = J.of_string s in
  let get k j = match J.member k j with Some v -> v | None -> Alcotest.failf "missing %s" k in
  let num = function J.Int i -> float_of_int i | J.Float f -> f | _ -> Alcotest.fail "not a number" in
  Alcotest.(check bool) "correct" true (get "correct" j = J.Bool r.correct);
  Alcotest.(check bool) "attempted" true (get "attempted" j = J.Int r.attempted);
  Alcotest.(check bool) "failed" true (get "failed" j = J.Int r.failed);
  (match get "metrics" j with
  | J.Obj l ->
      Alcotest.(check int) "metric count" (List.length r.metrics) (List.length l);
      List.iter2
        (fun (a : Out.metric) (name, m) ->
          Alcotest.(check string) "name" a.name name;
          Alcotest.(check bool) (a.name ^ " unit") true (get "unit" m = J.Str a.unit_);
          Alcotest.(check bool) (a.name ^ " value exact") true (num (get "value" m) = a.value))
        r.metrics l
  | _ -> Alcotest.fail "metrics not an object");
  Alcotest.check_raises "nan refused" (Invalid_argument "Out.to_json: x is not finite")
    (fun () -> ignore (Out.to_json { r with metrics = [ Out.metric "x" "s" nan ] }))

let () =
  Alcotest.run "perfbench"
    [
      ( "cm-wrapper",
        [
          Alcotest.test_case "transparent on a scripted duel" `Quick t_wrapper_transparent;
          Alcotest.test_case "spans under a live runtime" `Quick t_wrapper_live;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "nearest rank" `Quick t_percentiles;
          Alcotest.test_case "ten beyond" `Quick t_top;
        ] );
      ("closure", [ Alcotest.test_case "residuals" `Quick t_closure ]);
      ("output", [ Alcotest.test_case "round trip" `Quick t_roundtrip ]);
    ]
