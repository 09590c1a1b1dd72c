(* The benchmark: one workload per invocation.

     tcmbench.exe --workload fig1-list|kv-1m-drain --seed N
                  --seconds S --trace 0|1

   Untraced (--trace 0) it drives the public entry points Harness.run
   and Service.run (and Sim_load.run) with plain greedy, alternating the
   locator and TL2 backends in ABBA windows, and prints the end-to-end
   metrics.  Traced (--trace 1) it wraps greedy in Cm_wrap, runs the
   service loop through the replica, reads GC pauses from
   runtime_events, and prints the per-layer metrics.  kv-1m-drain runs
   each of its parts in a child process (--part, see run_part).
   Diagnostics go to stdout first; the last line is the JSON result
   (see Out). *)

open Tcm_stm
open Perfbench
module H = Tcm_workload.Harness
module SL = Tcm_workload.Sim_load
module S = Tcm_service.Service

let say fmt = Printf.printf (fmt ^^ "\n%!")
let backends = [| Stm.Locator; Stm.Tl2_backend |]
let bn i = Stm.backend_name backends.(i)
let plain_greedy : Cm_intf.factory = (module Tcm_core.Greedy)

(* ABBA: locator, tl2, tl2, locator — repeated [q] times. *)
let abba q = List.concat (List.init q (fun _ -> [ 0; 1; 1; 0 ]))
let fdiv a b = if b = 0. then 0. else a /. b
let idiv a b = fdiv (float_of_int a) (float_of_int b)

(* ------------------------------------------------------------------ *)
(* Metric names                                                        *)
(* ------------------------------------------------------------------ *)

(* The TL2 rates are printed as diagnostics only: in ten-run batches
   they spread 0.12-0.17 of their median, more than the locator rates
   in three batches of four, and fig1-list's TL2 windows are bimodal
   (README, "Measured spread"). *)
let end_to_end = [ "ops_per_s.locator"; "setup_s" ]

let e2e_unit name =
  if name = "setup_s" then "s"
  else "1/s"

(* (name, unit); names without a backend suffix are listed separately. *)
let per_layer_b =
  [
    ("stm.useful_attempt_frac", "ratio");
    ("stm.commit_attempt_us", "us");
    ("stm.wasted_us_per_commit", "us");
    ("stm.validation_aborts_per_commit", "count");
    ("stm.minor_words_per_commit", "words");
    ("cm.resolves_per_commit", "count");
    ("cm.resolve_ns", "ns");
    ("cm.block_us_per_commit", "us");
    ("cm.backoff_us_per_commit", "us");
    ("cm.abort_other_frac", "ratio");
    ("cm.block_frac", "ratio");
    ("structures.opens_per_attempt", "count");
    ("store.read_us", "us");
    ("store.scan_us", "us");
    ("store.rmw_us", "us");
    ("squeue.push_ns", "ns");
    ("squeue.pop_ns", "ns");
    ("service.exec_us_p50", "us");
    ("service.exec_us_p99", "us");
    ("service.closure_residual_frac", "ratio");
    ("setup.preload_s", "s");
    ("gc.minor_per_1k_ops", "count");
    ("gc.major_per_1k_ops", "count");
    ("gc.pause_p99_us", "us");
    ("gc.pause_us_per_s", "us/s");
    ("trace.overhead_frac", "ratio");
  ]

let per_layer_1 =
  [
    ("setup.schedule_s", "s");
    ("sim.ticks_per_s", "1/s");
    ("sim.commits_per_kticks", "count");
    ("sim.aborts_per_commit", "count");
    ("sim.resolves_per_ktick", "count");
    ("sim.resolve_ns", "ns");
  ]

let per_layer =
  List.concat_map (fun (n, u) -> [ (n ^ ".locator", u); (n ^ ".tl2", u) ]) per_layer_b
  @ per_layer_1

(* ------------------------------------------------------------------ *)
(* Run state: metrics, checks, op accounting                           *)
(* ------------------------------------------------------------------ *)

let values : (string, float) Hashtbl.t = Hashtbl.create 128
let set name v = Hashtbl.replace values name v
let set_b name i v = set (name ^ "." ^ bn i) v
let correct = ref true
let attempted = ref 0
let failed = ref 0

let check what ok =
  if not ok then begin
    correct := false;
    say "CHECK FAILED: %s" what
  end

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from the CM wrapper's spans                       *)
(* ------------------------------------------------------------------ *)

let span_metrics i (spans : Cm_wrap.span list) (stats : Runtime.stats_snapshot) =
  let s f = Cm_wrap.sum f spans in
  let commits = s (fun x -> x.commits) in
  let resolves = s (fun x -> x.resolves) in
  let us ns = float_of_int ns *. 1e-3 in
  set_b "stm.useful_attempt_frac" i (idiv commits (s (fun x -> x.attempts)));
  set_b "stm.commit_attempt_us" i (fdiv (us (s (fun x -> x.commit_self_ns))) (float_of_int commits));
  set_b "stm.wasted_us_per_commit" i (fdiv (us (s (fun x -> x.wasted_ns))) (float_of_int commits));
  (* Aborts no CM verdict explains: commit-time validation failures. *)
  let unexplained =
    max 0 (stats.Runtime.n_aborts - stats.n_self_aborts - stats.n_enemy_aborts)
  in
  set_b "stm.validation_aborts_per_commit" i (idiv unexplained stats.n_commits);
  set_b "cm.resolves_per_commit" i (idiv resolves commits);
  set_b "cm.resolve_ns" i (idiv (s (fun x -> x.resolve_ns)) resolves);
  set_b "cm.block_us_per_commit" i (fdiv (us (s (fun x -> x.block_ns))) (float_of_int commits));
  set_b "cm.backoff_us_per_commit" i
    (fdiv (us (s (fun x -> x.backoff_ns))) (float_of_int commits));
  set_b "cm.abort_other_frac" i (idiv (s (fun x -> x.abort_other)) resolves);
  set_b "cm.block_frac" i (idiv (s (fun x -> x.blocks)) resolves);
  set_b "structures.opens_per_attempt" i (idiv (s (fun x -> x.opens)) (s (fun x -> x.attempts)))

let gc_metrics i ~ops ~minor ~major ~pauses ~lost ~seconds =
  set_b "gc.minor_per_1k_ops" i (fdiv (1000. *. float_of_int minor) ops);
  set_b "gc.major_per_1k_ops" i (fdiv (1000. *. float_of_int major) ops);
  let a = Pct.sorted (Array.of_list pauses) in
  set_b "gc.pause_p99_us" i (if Array.length a = 0 then 0. else Pct.at a 99.);
  set_b "gc.pause_us_per_s" i (fdiv (Array.fold_left ( +. ) 0. a) seconds);
  say "gc %s: %d pauses, p50 %.1f us, p99 %.1f us%s, %d runtime events lost" (bn i)
    (Array.length a) (Pct.at a 50.) (Pct.at a 99.)
    (match Pct.top (Array.length a) with
    | Some (p, k) when p > 99. -> Printf.sprintf ", p%g %.1f us (%d beyond)" p (Pct.at a p) k
    | _ -> "")
    lost

let gc_counts () =
  let g = Gc.quick_stat () in
  (g.Gc.minor_collections, g.Gc.major_collections)

(* ------------------------------------------------------------------ *)
(* fig1-list: the paper's Figure 1 input, closed loop                  *)
(* ------------------------------------------------------------------ *)

let window_s = 0.5
let warmup_s = 0.25
let sim_threads = 32
let sim_horizon = 15_000
let fig1_prefill = 128

let fig1_cfg ~backend ~manager ~seed =
  {
    H.default with
    structure = H.List_s;
    backend;
    manager;
    seed;
    duration_s = window_s;
    threads = 2;
    key_range = 256;
    update_pct = 100;
    prefill = fig1_prefill;
  }

(* The harness keeps its set private, so the set invariants are
   checked on a replica of its loop: two domains, fixed op counts, the
   same structure and manager. *)
let fig1_set_check i ~seed =
  let backend = backends.(i) in
  let rt = Stm.create ~backend plain_greedy in
  let ops = H.make_ops H.List_s in
  let rng = Splitmix.create seed in
  for k = 0 to fig1_prefill - 1 do
    ignore
      (Stm.atomically rt (fun tx ->
           ops.insert tx ~key:(k * 2 mod 256) ~r:(Splitmix.int rng max_int)))
  done;
  let per_dom = 20_000 in
  let ins = Array.make 2 0 and rem = Array.make 2 0 in
  let body d () =
    let rng = Splitmix.create ((seed * 7) + d) in
    for _ = 1 to per_dom do
      let key = Splitmix.int rng 256 and r = Splitmix.int rng max_int in
      if Splitmix.bool rng then begin
        if Stm.atomically rt (fun tx -> ops.insert tx ~key ~r) then ins.(d) <- ins.(d) + 1
      end
      else if Stm.atomically rt (fun tx -> ops.remove tx ~key ~r) then rem.(d) <- rem.(d) + 1
    done
  in
  List.iter Domain.join (List.init 2 (fun d -> Domain.spawn (body d)));
  let set = Stm.atomically rt (fun tx -> ops.snapshot tx) in
  let rec sorted = function a :: (b :: _ as t) -> a < b && sorted t | _ -> true in
  let size = fig1_prefill + ins.(0) + ins.(1) - rem.(0) - rem.(1) in
  check (Printf.sprintf "fig1 %s set sorted and duplicate-free" (bn i)) (sorted set);
  check (Printf.sprintf "fig1 %s keys in range" (bn i))
    (List.for_all (fun k -> k >= 0 && k < 256) set);
  check
    (Printf.sprintf "fig1 %s size %d = prefill + inserts - removes %d" (bn i)
       (List.length set) size)
    (List.length set = size);
  let st = Stm.stats rt in
  check (Printf.sprintf "fig1 %s set-check commits" (bn i))
    (st.Runtime.n_commits = fig1_prefill + (2 * per_dom) + 1);
  attempted := !attempted + (2 * per_dom);
  say "fig1 set check %s: %d keys, %d inserts, %d removes" (bn i) (List.length set)
    (ins.(0) + ins.(1)) (rem.(0) + rem.(1))

type acc = {
  mutable commits : int;
  mutable elapsed : float;
  mutable rates : float list;  (** One per window. *)
  mutable p50w : float;
  mutable p99w : float;
  mutable minor_words : float;
  mutable spans : Cm_wrap.span list;
  mutable stats : Runtime.stats_snapshot list;
  mutable pauses : float list;
  mutable lost : int;
  mutable minor_gcs : int;
  mutable major_gcs : int;
}

let acc () =
  {
    commits = 0; elapsed = 0.; rates = []; p50w = 0.; p99w = 0.; minor_words = 0.; spans = [];
    stats = []; pauses = []; lost = 0; minor_gcs = 0; major_gcs = 0;
  }

(* Some TL2 windows run at half speed when the host is busy; the
   median over all of a run's windows is immune to them, where the run
   total follows how many a run happened to catch. *)
let window_median a = Pct.median (Array.of_list a.rates)

let fig1 ~seed ~seconds ~traced =
  let quads = max 1 (int_of_float (Float.round (seconds *. 0.8 /. (4. *. window_s)))) in
  let gcev = if traced then Some (Gcev.start ()) else None in
  let poll = Option.map (fun g () -> Gcev.poll g) gcev in
  (* [0] untraced, [1] traced (wrapped manager), per backend. *)
  let accs = Array.init 2 (fun _ -> Array.init 2 (fun _ -> acc ())) in
  let setup = ref 0. in
  let closure = Array.make_matrix 2 2 (0., 0., 0., 0.) in
  let scratch = acc () in
  let window ?(warm = false) w i ~wrapped =
    Hostspeed.record ();
    let manager = if wrapped then Cm_wrap.greedy else plain_greedy in
    let cfg = fig1_cfg ~backend:backends.(i) ~manager ~seed:((seed * 1009) + w) in
    let cfg = if warm then { cfg with duration_s = warmup_s } else cfg in
    ignore (Cm_wrap.take ());
    Option.iter (fun g -> ignore (Gcev.take g)) gcev;
    let g0 = gc_counts () in
    let t0 = Clock.now_ns () in
    let o = H.run ?poll cfg in
    let wall = Clock.since_s t0 in
    let g1 = gc_counts () in
    if not warm then setup := !setup +. (wall -. o.elapsed_s);
    check (Printf.sprintf "fig1 window %d runtime commits = prefill + harness commits" w)
      (o.stats.n_commits = fig1_prefill + o.commits);
    attempted := !attempted + o.commits;
    say "fig1 window %d %s%s: %d commits in %.3f s (%.0f/s)" w (bn i)
      (if wrapped then " traced" else "") o.commits o.elapsed_s
      (float_of_int o.commits /. o.elapsed_s);
    let a = if warm then scratch else accs.(if wrapped then 1 else 0).(i) in
    a.commits <- a.commits + o.commits;
    a.elapsed <- a.elapsed +. o.elapsed_s;
    a.rates <- (float_of_int o.commits /. o.elapsed_s) :: a.rates;
    a.p50w <- a.p50w +. (o.latency_p50_us *. float_of_int o.commits);
    a.p99w <- a.p99w +. (o.latency_p99_us *. float_of_int o.commits);
    a.minor_words <- a.minor_words +. o.minor_words;
    a.stats <- o.stats :: a.stats;
    a.minor_gcs <- a.minor_gcs + (fst g1 - fst g0);
    a.major_gcs <- a.major_gcs + (snd g1 - snd g0);
    Option.iter
      (fun g ->
        let p, l = Gcev.take g in
        a.pauses <- List.rev_append p a.pauses;
        a.lost <- a.lost + l)
      gcev;
    if wrapped && not warm then begin
      let spans = Cm_wrap.take () in
      a.spans <- List.rev_append spans a.spans;
      (* Per worker domain (the prefill ran on the main domain). *)
      let main = (Domain.self () :> int) in
      let workers =
        List.sort (fun x y -> compare x.Cm_wrap.dom y.Cm_wrap.dom)
          (List.filter (fun x -> x.Cm_wrap.dom <> main) spans)
      in
      List.iteri
        (fun d (s : Cm_wrap.span) ->
          if d < 2 then begin
            let el, st, cm, rest = closure.(i).(d) in
            closure.(i).(d) <-
              ( el +. o.elapsed_s,
                st +. Clock.s_of_ns s.commit_self_ns,
                cm +. Clock.s_of_ns s.commit_cm_ns,
                rest +. Clock.s_of_ns (s.wasted_ns + s.gap_ns) )
          end)
        workers
    end
  in
  (* Simulator chunks: the same seed every time, so each must repeat
     the first chunk's counts exactly. *)
  let sim_first = ref None in
  let sim_ticks = ref 0 and sim_wall = ref 0. in
  let sim_resolves = ref 0 and sim_resolve_ns = ref 0 in
  let sim_chunk ~wrapped =
    let base = Tcm_sim.Policy.greedy () in
    let policy =
      if not wrapped then base
      else
        {
          base with
          resolve =
            (fun ~me ~other ~attempts ~now ->
              let t0 = Clock.now_ns () in
              let d = base.resolve ~me ~other ~attempts ~now in
              sim_resolve_ns := !sim_resolve_ns + (Clock.now_ns () - t0);
              incr sim_resolves;
              d);
        }
    in
    let t0 = Clock.now_ns () in
    let o = SL.run ~horizon:sim_horizon ~seed ~threads:sim_threads ~policy SL.list_model in
    let wall = Clock.since_s t0 in
    if not wrapped then begin
      sim_ticks := !sim_ticks + o.ticks;
      sim_wall := !sim_wall +. wall
    end;
    match !sim_first with
    | None -> sim_first := Some o
    | Some f ->
        check "sim: same seed, same counts"
          (f.commits = o.commits && f.aborts = o.aborts && f.ticks = o.ticks)
  in
  (* Warm-up: one short window per backend, checked but not counted
     (the first windows of a process run slow). *)
  window ~warm:true (-1) 0 ~wrapped:false;
  window ~warm:true (-2) 1 ~wrapped:false;
  let w = ref 0 in
  List.iteri
    (fun k i ->
      if traced then begin
        (* Traced and untraced windows alternate too, for the overhead. *)
        let first = k mod 2 = 0 in
        window !w i ~wrapped:first;
        window (!w + 1) i ~wrapped:(not first);
        w := !w + 2
      end
      else begin
        window !w i ~wrapped:false;
        incr w
      end;
      if k mod 2 = 1 then begin
        sim_chunk ~wrapped:false;
        if traced then sim_chunk ~wrapped:true
      end)
    (abba quads);
  Array.iteri (fun i _ -> fig1_set_check i ~seed) backends;
  let sim_tps = fdiv (float_of_int !sim_ticks) !sim_wall in
  say "fig1 sim: %d threads, %d ticks per chunk, %.0f simulated ticks per s" sim_threads
    sim_horizon sim_tps;
  for i = 0 to 1 do
    let a = accs.(0).(i) in
    let c = float_of_int a.commits in
    say "fig1 %s untraced: median over %d windows %.0f commits/s; %d commits over %.2f s = \
         %.0f commits/s; commit-weighted over windows: p50 %.2f us, p99 %.2f us (diagnostic)"
      (bn i) (List.length a.rates) (window_median a) a.commits a.elapsed (fdiv c a.elapsed)
      (fdiv a.p50w c) (fdiv a.p99w c)
  done;
  if not traced then begin
    for i = 0 to 1 do
      set_b "ops_per_s" i (window_median accs.(0).(i))
    done;
    set "setup_s" !setup
  end
  else begin
    for i = 0 to 1 do
      let u = accs.(0).(i) and t = accs.(1).(i) in
      let stats = Replica.sum_stats t.stats in
      span_metrics i t.spans stats;
      set_b "stm.minor_words_per_commit" i (fdiv u.minor_words (float_of_int u.commits));
      let ops = float_of_int (u.commits + t.commits) in
      gc_metrics i ~ops ~minor:(u.minor_gcs + t.minor_gcs) ~major:(u.major_gcs + t.major_gcs)
        ~pauses:(List.rev_append u.pauses t.pauses) ~lost:(u.lost + t.lost)
        ~seconds:(u.elapsed +. t.elapsed);
      let ru = fdiv (float_of_int u.commits) u.elapsed
      and rt = fdiv (float_of_int t.commits) t.elapsed in
      set_b "trace.overhead_frac" i (fdiv ru rt -. 1.);
      say "fig1 %s traced %.0f vs untraced %.0f commits/s" (bn i) rt ru;
      for d = 0 to 1 do
        let el, st, cm, rest = closure.(i).(d) in
        let r = Closure.residual_frac ~total:el [ st; cm; rest ] in
        say
          "closure fig1 %s domain %d: stm self %.1f%% + cm %.1f%% + wasted/gaps %.1f%% of \
           %.2f s, residual %.2f%%"
          (bn i) d (100. *. fdiv st el) (100. *. fdiv cm el) (100. *. fdiv rest el) el
          (100. *. r);
        check
          (Printf.sprintf "fig1 %s domain %d closure residual %.4f within [0, 0.05]" (bn i) d r)
          (Closure.within ~lo:0. ~hi:0.05 r)
      done
    done;
    (match !sim_first with
    | Some f ->
        set "sim.ticks_per_s" sim_tps;
        set "sim.commits_per_kticks" (idiv (1000 * f.commits) f.ticks);
        set "sim.aborts_per_commit" (idiv f.aborts f.commits);
        let chunks = List.length (abba quads) / 2 in
        set "sim.resolves_per_ktick" (idiv (1000 * !sim_resolves) (chunks * f.ticks));
        set "sim.resolve_ns" (idiv !sim_resolve_ns !sim_resolves)
    | None -> ())
  end

(* ------------------------------------------------------------------ *)
(* kv-1m-drain: Service.run untraced, the replica traced               *)
(* ------------------------------------------------------------------ *)

(* Saturated drains over a store far larger than the caches: every
   request is due in the first 10 ms and the queue holds them all, so
   one worker runs flat out and the served rate is the service's own
   per-request cost (pop + store + STM commit), not an offered rate. *)
let kv_tag = "kv-1m-drain"
let kv_keys = 1_000_000

(* Two ABBA quads of drains, sized so a run takes about [seconds] on a
   two-vCPU host (~3 s of preload and ~3 s of draining per drain at
   [seconds] = 45): a few long drains average the host's speed
   changes better than many short ones would, as every drain pays a
   1M-key preload first. *)
let kv_quads = 2
let drain_requests ~seconds = 1000 * max 1 (int_of_float (Float.round (seconds *. 4.)))

let kv_cfg ~backend ~seed ~requests : S.config =
  {
    S.default with
    backend;
    manager = plain_greedy;
    seed;
    workers = 1;
    duration_s = 0.01;
    process = Tcm_service.Arrival.Poisson { rate = float_of_int requests /. 0.01 };
    queue_cap = requests + (requests / 4);
    n_keys = kv_keys;
  }

let service_checks tag (s : S.summary) =
  List.iter
    (fun (c : S.class_stats) ->
      check
        (Printf.sprintf "%s %s: submitted %d = completed %d + dropped %d" tag
           (Tcm_service.Sclass.name c.cls) c.submitted c.completed c.dropped)
        (c.submitted = c.completed + c.dropped))
    s.classes;
  check (tag ^ ": metrics, obs and trace off")
    ((not s.metrics_on) && (not s.trace_on) && not (Tcm_obs.enabled ()));
  check (tag ^ ": drain sheds nothing") (s.dropped = 0);
  attempted := !attempted + s.submitted;
  failed := !failed + s.dropped

(* Every kv part runs in a fresh child process, the same program with
   --part P: untraced, drain P; traced, entry P mod 3 of
   [traced_parts] on backend P / 3.  In one
   process the drains slow down one after another (the 1M-key stores
   leave the heap fragmented, and the OCaml 5.1 runtime does not
   compact): run totals spread 0.17-0.18 over ten runs, and the traced
   run, which holds a replica store besides, peaked at 2.2 GB.  The
   child prints what it measured as "value NAME V" lines and its counts
   as a last "part ATTEMPTED FAILED CORRECT" line; the rest of its
   output is passed through. *)
let run_part ~seed ~seconds ~traced p =
  let args =
    [| Sys.executable_name; "--workload"; kv_tag; "--seed"; string_of_int seed; "--seconds";
       Printf.sprintf "%.17g" seconds; "--trace"; (if traced then "1" else "0");
       "--part"; string_of_int p |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let got = ref [] and counts = ref None in
  (try
     while true do
       let l = input_line ic in
       match Scanf.sscanf_opt l "value %s %f" (fun n v -> (n, v)) with
       | Some nv -> got := nv :: !got
       | None -> (
           match Scanf.sscanf_opt l "part %d %d %B" (fun a f ok -> (a, f, ok)) with
           | Some c -> counts := Some c
           | None -> print_endline l)
     done
   with End_of_file -> ());
  (match (Unix.close_process_in ic, !counts) with
  | Unix.WEXITED 0, Some (a, f, ok) ->
      attempted := !attempted + a;
      failed := !failed + f;
      check (Printf.sprintf "%s part %d checks" kv_tag p) ok
  | _ -> check (Printf.sprintf "%s part %d: child process reported" kv_tag p) false);
  List.rev !got

(* The child's side: report what [part] measured, then exit. *)
let report_part () =
  Hashtbl.iter (fun n v -> Printf.printf "value %s %.17g\n" n v) values;
  Printf.printf "part %d %d %B\n" !attempted !failed !correct;
  exit 0

(* One Service.run drain on backend [i]. *)
let drain_part ~seed ~seconds ~tag i =
  let cfg = kv_cfg ~backend:backends.(i) ~seed ~requests:(drain_requests ~seconds) in
  let t0 = Clock.now_ns () in
  let s = S.run cfg in
  let setup = Clock.since_s t0 -. s.elapsed_s in
  service_checks tag s;
  say "%s %s: %d requests in %.3f s (%.0f/s), set-up %.3f s, aborts %d" tag (bn i) s.completed
    s.elapsed_s s.throughput setup s.aborts;
  set "completed" (float_of_int s.completed);
  set "elapsed_s" s.elapsed_s;
  set "setup_s" setup

let kv_untraced ~seed ~seconds =
  let comp = Array.make 2 0. and el = Array.make 2 0. in
  let setups = ref [] in
  List.iteri
    (fun w i ->
      Hostspeed.record ();
      let v = run_part ~seed ~seconds ~traced:false w in
      let get n = Option.value (List.assoc_opt n v) ~default:0. in
      comp.(i) <- comp.(i) +. get "completed";
      el.(i) <- el.(i) +. get "elapsed_s";
      setups := get "setup_s" :: !setups)
    (abba kv_quads);
  for i = 0 to 1 do
    set_b "ops_per_s" i (comp.(i) /. el.(i));
    say "%s %s: %.0f requests in %.2f s = %.0f requests/s" kv_tag (bn i) comp.(i) el.(i)
      (comp.(i) /. el.(i))
  done;
  set "setup_s" (Pct.median (Array.of_list !setups))

(* Request dispatch outside any STM attempt (class lookup, the
   closure, two clock reads), as a share of the execution stage. *)
let exec_residual_max = 0.25

(* How far the replica's drain rate may sit from Service.run's.  On a
   two-vCPU host one three-second drain of a 1M-key store reads up to
   ~25% off the next, even in one process on one store, and the ratio
   of two drains of each read 0.66-1.24 over seven traced runs at
   --seconds 45 (both backends; shorter drains spread wider); a replica
   that did half or twice the service's work per request would sit
   outside. *)
let band_lo = 0.5
let band_hi = 2.0

let pcts a =
  let s = Pct.sorted a in
  (Pct.at s 50., Pct.at s 99.)

(* Backend [i]'s replica passes on one store: U = untraced, T =
   traced, in the order U T T U so drift hits both alike. *)
let replica_part ~seed ~seconds i =
  let g = Gcev.start () in
  let backend = backends.(i) in
  let cfg = kv_cfg ~backend ~seed ~requests:(drain_requests ~seconds) in
  let tcfg = { cfg with manager = Cm_wrap.greedy } in
  let us = ref [] and ts = ref [] in
  let pauses = ref [] and lost = ref 0 and minor = ref 0 and major = ref 0 in
  let t0 = Clock.now_ns () in
  let store = Tcm_service.Store.create ~n_keys:cfg.n_keys () in
  Tcm_service.Store.preload store;
  set_b "setup.preload_s" i (Clock.since_s t0);
  let t1 = Clock.now_ns () in
  let sched = Replica.build_schedule cfg in
  set "setup.schedule_s" (Clock.since_s t1);
  ignore (Cm_wrap.take ());
  List.iter
    (fun pass ->
      Gc.compact ();
      let r =
        match pass with
        | `U ->
            let r = Replica.run ~traced:false cfg store sched in
            us := r :: !us;
            r
        | `T ->
            ignore (Gcev.take g);
            let g0 = gc_counts () in
            let r = Replica.run ~poll:(fun () -> Gcev.poll g) ~traced:true tcfg store sched in
            ts := r :: !ts;
            let g1 = gc_counts () in
            let p, l = Gcev.take g in
            pauses := List.rev_append p !pauses;
            lost := !lost + l;
            minor := !minor + (fst g1 - fst g0);
            major := !major + (snd g1 - snd g0);
            r
      in
      say "%s replica %s %s pass: %d requests in %.3f s (%.0f/s)" kv_tag (bn i)
        (if pass = `U then "untraced" else "traced")
        (Array.length r.lat_us) r.elapsed_s
        (float_of_int (Array.length r.lat_us) /. r.elapsed_s))
    [ `U; `T; `T; `U ];
  let spans = Cm_wrap.take () in
  let total = Replica.value_sum backend store in
  let increments = List.fold_left (fun a (r : Replica.result) -> a + r.rmw_incr) 0 (!us @ !ts) in
  let expect = Replica.initial_sum cfg.n_keys + increments in
  check
    (Printf.sprintf "%s replica %s value sum %d = initial + rmw increments %d" kv_tag (bn i)
       total expect)
    (total = expect);
  List.iter
    (fun (r : Replica.result) ->
      Array.iteri
        (fun k _ ->
          check (Printf.sprintf "%s replica %s class %d conservation" kv_tag (bn i) k)
            (r.submitted.(k) = r.completed.(k) + r.dropped.(k)))
        r.submitted;
      let sum = Array.fold_left ( + ) 0 in
      let d = sum r.dropped in
      check (kv_tag ^ " replica sheds nothing") (d = 0);
      attempted := !attempted + sum r.submitted;
      failed := !failed + d)
    (!us @ !ts);
  let u = Replica.concat !us and t = Replica.concat !ts in
  let rate (r : Replica.result) = float_of_int (Array.length r.lat_us) /. r.elapsed_s in
  set "replica_rate" (rate u);
  (* Per-layer metrics from the traced passes. *)
  span_metrics i spans t.stats;
  set_b "stm.minor_words_per_commit" i (fdiv u.minor_words (float_of_int u.stats.n_commits));
  let ops = float_of_int (Array.length t.lat_us) in
  gc_metrics i ~ops ~minor:!minor ~major:!major ~pauses:!pauses ~lost:!lost
    ~seconds:t.elapsed_s;
  let by_cls k =
    let sum = ref 0. and n = ref 0 in
    Array.iteri
      (fun j c ->
        if c = k then begin
          sum := !sum +. t.exec_us.(j);
          incr n
        end)
      t.exec_cls;
    fdiv !sum (float_of_int !n)
  in
  set_b "store.read_us" i (by_cls 0);
  set_b "store.scan_us" i (by_cls 1);
  set_b "store.rmw_us" i (by_cls 2);
  let e50, e99 = pcts t.exec_us in
  set_b "service.exec_us_p50" i e50;
  set_b "service.exec_us_p99" i e99;
  set_b "squeue.push_ns" i (idiv t.push_ns t.pushes);
  set_b "squeue.pop_ns" i (idiv t.pop_ns t.pops);
  (* Closure, in two steps.  The stage stamps split each request's
     latency into generator lateness + queue wait + execution, which
     must add up exactly; and the STM attempts the CM wrapper timed
     should account for the execution stage, leaving only the
     request dispatch outside any attempt. *)
  let fsum = Array.fold_left ( +. ) 0. in
  let lat = fsum t.lat_us and late = fsum t.late_us in
  let wait = fsum t.wait_us and exec = fsum t.exec_us in
  let stages = Closure.residual_frac ~total:lat [ late; wait; exec ] in
  check (Printf.sprintf "%s %s stage stamps add up (residual %.2e)" kv_tag (bn i) stages)
    (Float.abs stages < 1e-6);
  let attempts =
    Clock.us_of_ns
      (Cm_wrap.sum (fun x -> x.Cm_wrap.commit_self_ns + x.commit_cm_ns + x.wasted_ns) spans)
  in
  let r = Closure.residual_frac ~total:exec [ attempts ] in
  set_b "service.closure_residual_frac" i r;
  say "closure %s %s: exec = stm attempts %.1f%% + residual %.1f%%" kv_tag (bn i)
    (100. *. fdiv attempts exec) (100. *. r);
  check (Printf.sprintf "%s %s exec closure residual %.4f within [0, %.2f]" kv_tag (bn i) r
    exec_residual_max)
    (Closure.within ~lo:0. ~hi:exec_residual_max r);
  (* Drain rates: the worker runs flat out, so the rate is the
     execution stage's cost with and without the instruments. *)
  let overhead = (rate u /. rate t) -. 1. in
  set_b "trace.overhead_frac" i overhead;
  say "%s %s traced replica: %.0f requests/s; overhead %.3f" kv_tag (bn i) (rate t) overhead

(* The traced run's parts, per backend: Service.run, the replica's
   passes, Service.run again.  Each part's drains run on the first
   store of a fresh process, so the replica and the service compare
   fairly. *)
let traced_parts = [ `Service; `Replica; `Service ]

let kv_traced ~seed ~seconds =
  let sched = ref [] in
  for i = 0 to 1 do
    let done_ = ref 0. and el = ref 0. and replica_rate = ref 0. in
    List.iteri
      (fun k kind ->
        Hostspeed.record ();
        let v = run_part ~seed ~seconds ~traced:true ((List.length traced_parts * i) + k) in
        let get n = Option.value (List.assoc_opt n v) ~default:0. in
        match kind with
        | `Service ->
            done_ := !done_ +. get "completed";
            el := !el +. get "elapsed_s"
        | `Replica ->
            replica_rate := get "replica_rate";
            List.iter
              (fun (n, x) ->
                if n = "setup.schedule_s" then sched := x :: !sched
                else if n <> "replica_rate" then set n x)
              v)
      traced_parts;
    (* Replica against the public entry point: drain rates, same seed. *)
    let svc_rate = !done_ /. !el in
    let ratio = !replica_rate /. svc_rate in
    say "%s %s replica vs Service.run: %.0f vs %.0f requests/s, ratio %.3f" kv_tag (bn i)
      !replica_rate svc_rate ratio;
    check
      (Printf.sprintf "%s %s replica/Service.run drain rate %.3f within [%.2f, %.2f]" kv_tag
         (bn i) ratio band_lo band_hi)
      (ratio >= band_lo && ratio <= band_hi)
  done;
  set "setup.schedule_s" (Pct.median (Array.of_list !sched))

let kv_parts ~traced = if traced then 2 * List.length traced_parts else 4 * kv_quads

(* The child's side of [run_part]: part [p] in this process. *)
let kv_part ~seed ~seconds ~traced p =
  let n = List.length traced_parts in
  if not traced then
    drain_part ~seed:((seed * 1009) + p) ~seconds
      ~tag:(Printf.sprintf "%s window %d" kv_tag p)
      (List.nth (abba kv_quads) p)
  else if List.nth traced_parts (p mod n) = `Replica then replica_part ~seed ~seconds (p / n)
  else drain_part ~seed ~seconds ~tag:(kv_tag ^ " service") (p / n);
  report_part ()

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let workloads = [ "fig1-list"; kv_tag ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let list_metrics = ref false and part = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--list-metrics", Arg.Set list_metrics, " print metric names and units, then exit");
      ( "--part",
        Arg.Set_int part,
        " kv-1m-drain: run only part P in this process (see run_part)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "tcmbench.exe --workload W --seed N --seconds S --trace 0|1";
  if !list_metrics then begin
    List.iter (fun n -> say "end_to_end %s %s" n (e2e_unit n)) end_to_end;
    List.iter (fun (n, u) -> say "per_layer %s %s" n u) per_layer;
    exit 0
  end;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "need --seconds > 0 and --trace 0|1";
    exit 2
  end;
  let traced = !trace = 1 in
  if !part >= 0 then begin
    if !workload <> kv_tag || !part >= kv_parts ~traced then begin
      prerr_endline "--part needs --workload kv-1m-drain and a part index";
      exit 2
    end;
    kv_part ~seed:!seed ~seconds:!seconds ~traced !part
  end;
  (* A layer a workload never runs does no work there: 0. *)
  if traced then List.iter (fun (n, _) -> set n 0.) per_layer;
  let t0 = Clock.now_ns () in
  (match !workload with
  | "fig1-list" -> fig1 ~seed:!seed ~seconds:!seconds ~traced
  | _ ->
      if traced then kv_traced ~seed:!seed ~seconds:!seconds
      else kv_untraced ~seed:!seed ~seconds:!seconds);
  say "%s" (Hostspeed.summary ());
  say "run: %.1f s wall, attempted %d, failed %d, checks %s" (Clock.since_s t0) !attempted
    !failed
    (if !correct then "passed" else "FAILED");
  let names =
    if traced then per_layer
    else List.map (fun n -> (n, e2e_unit n)) end_to_end
  in
  let metrics =
    List.map
      (fun (n, u) ->
        match Hashtbl.find_opt values n with
        | Some v -> Out.metric n u v
        | None -> failwith ("metric not measured: " ^ n))
      names
  in
  print_endline
    (Out.to_json
       { Out.correct = !correct; attempted = max 1 !attempted; failed = !failed; metrics })
