(** A benchmark-side replica of the service loop ({!Tcm_service.Service.run}),
    built from the same public pieces — {!Tcm_service.Arrival.schedule},
    {!Tcm_service.Store}, {!Tcm_service.Squeue} and [Stm.atomically] —
    so each request can carry stage stamps: due (scheduled arrival),
    push, pop and done.  Untraced, it reads the clock where the service
    does (before each sleep and at completion); traced, it also stamps
    push and pop and times each push and pop call.

    The store is passed in, so one preload can serve several passes;
    {!value_sum} then checks that the rmw increments all landed. *)

open Tcm_stm
open Tcm_service

(* Mirrors the service's schedule: same rng derivation, so one seed
   gives the same requests as [Service.run]. *)
type schedule = {
  times : float array;
  cls : int array;
  key_off : int array;
  keys : int array;
}

let keys_per_class (c : Service.config) ci =
  match Sclass.all.(ci) with
  | Sclass.Read -> max 1 c.reads_per_txn
  | Sclass.Scan -> 1
  | Sclass.Rmw -> max 1 c.rmws_per_txn

let build_schedule (c : Service.config) =
  let rng = Splitmix.create ((c.seed * 31) + 1) in
  let zipf = Tcm_dist.Samplers.Zipf.create ~n:c.n_keys ~theta:c.theta in
  let times = Arrival.schedule c.process rng ~horizon:c.duration_s in
  let n = Array.length times in
  let cls = Array.make n 0 in
  let key_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let ci = Sclass.index (Sclass.pick c.mix rng) in
    cls.(i) <- ci;
    key_off.(i + 1) <- key_off.(i) + keys_per_class c ci
  done;
  let keys = Array.init key_off.(n) (fun _ -> Tcm_dist.Samplers.Zipf.draw zipf rng) in
  { times; cls; key_off; keys }

let incr_binding = function None -> Some 1 | Some v -> Some (v + 1)

let execute rt store ~scan_len sched i =
  let lo = sched.key_off.(i) in
  let hi = sched.key_off.(i + 1) in
  match Sclass.all.(sched.cls.(i)) with
  | Sclass.Read ->
      ignore
        (Stm.atomically rt (fun tx ->
             let acc = ref 0 in
             for j = lo to hi - 1 do
               match Store.get tx store sched.keys.(j) with
               | Some v -> acc := !acc + v
               | None -> ()
             done;
             !acc))
  | Sclass.Scan ->
      ignore (Stm.atomically rt (fun tx -> Store.scan tx store ~lo:sched.keys.(lo) ~len:scan_len))
  | Sclass.Rmw ->
      ignore
        (Stm.atomically rt (fun tx ->
             for j = lo to hi - 1 do
               Store.rmw tx store sched.keys.(j) incr_binding
             done;
             0))

type result = {
  submitted : int array;  (** Per class, indexed like {!Sclass.all}. *)
  completed : int array;
  dropped : int array;
  lat_us : float array;  (** Every completion, due to done. *)
  late_us : float array;  (** Traced: due to push, per completion. *)
  wait_us : float array;  (** Traced: push to pop. *)
  exec_us : float array;  (** Traced: pop to done. *)
  exec_cls : int array;  (** Class of each [exec_us] entry. *)
  elapsed_s : float;
  push_ns : int;  (** Traced: summed over every push call. *)
  pushes : int;
  pop_ns : int;  (** Traced: summed over every pop that returned a request. *)
  pops : int;
  rmw_incr : int;  (** Increments the completed rmw requests applied. *)
  minor_words : float;  (** Worker domains' minor words. *)
  stats : Runtime.stats_snapshot;  (** Runtime counters of this pass. *)
}

let run ?poll ~traced (c : Service.config) store sched =
  let rt = Stm.create ~backend:c.backend c.manager in
  let n = Array.length sched.times in
  let due = Array.make n 0 and push_t = Array.make n 0 in
  let pop_t = Array.make n 0 and done_t = Array.make n 0 in
  let submitted = Array.make Sclass.count 0 and dropped = Array.make Sclass.count 0 in
  let q = Squeue.create ~shards:c.workers c.queue_cap in
  let push_ns = ref 0 in
  let w_pop_ns = Array.make c.workers 0 and w_pops = Array.make c.workers 0 in
  let w_rmw = Array.make c.workers 0 and w_minor = Array.make c.workers 0. in
  let t0 = Clock.now_ns () in
  let generator () =
    for i = 0 to n - 1 do
      let d = t0 + int_of_float (sched.times.(i) *. 1e9) in
      due.(i) <- d;
      let wait = d - Clock.now_ns () in
      if wait > 0 then Unix.sleepf (float_of_int wait *. 1e-9);
      let ci = sched.cls.(i) in
      submitted.(ci) <- submitted.(ci) + 1;
      let ok =
        if traced then begin
          let p0 = Clock.now_ns () in
          push_t.(i) <- p0;
          let ok = Squeue.try_push q i in
          push_ns := !push_ns + (Clock.now_ns () - p0);
          ok
        end
        else Squeue.try_push q i
      in
      if not ok then dropped.(ci) <- dropped.(ci) + 1
    done
  in
  let worker wid () =
    let mw0 = Gc.minor_words () in
    let rec loop () =
      let p0 = if traced then Clock.now_ns () else 0 in
      let i = Squeue.pop q ~shard:wid in
      if i >= 0 then begin
        if traced then begin
          let p1 = Clock.now_ns () in
          pop_t.(i) <- p1;
          w_pop_ns.(wid) <- w_pop_ns.(wid) + (p1 - p0);
          w_pops.(wid) <- w_pops.(wid) + 1
        end;
        execute rt store ~scan_len:c.scan_len sched i;
        done_t.(i) <- Clock.now_ns ();
        if Sclass.all.(sched.cls.(i)) = Sclass.Rmw then
          w_rmw.(wid) <- w_rmw.(wid) + (sched.key_off.(i + 1) - sched.key_off.(i));
        loop ()
      end
    in
    loop ();
    w_minor.(wid) <- Gc.minor_words () -. mw0
  in
  let s0 = Stm.stats rt in
  let workers = List.init c.workers (fun wid -> Domain.spawn (worker wid)) in
  let gen_done = Atomic.make false in
  let gen =
    Domain.spawn (fun () ->
        generator ();
        Atomic.set gen_done true)
  in
  (match poll with
  | Some poll ->
      while not (Atomic.get gen_done) do
        Unix.sleepf 0.01;
        poll ()
      done
  | None -> ());
  Domain.join gen;
  Squeue.close q;
  List.iter Domain.join workers;
  let elapsed_s = Clock.since_s t0 in
  let s1 = Stm.stats rt in
  let completed = Array.make Sclass.count 0 in
  let lat = ref [] and late = ref [] and wait = ref [] and exec = ref [] and ecls = ref [] in
  for i = n - 1 downto 0 do
    if done_t.(i) > 0 then begin
      let ci = sched.cls.(i) in
      let l = Clock.us_of_ns (done_t.(i) - due.(i)) in
      completed.(ci) <- completed.(ci) + 1;
      lat := l :: !lat;
      if traced then begin
        late := Clock.us_of_ns (push_t.(i) - due.(i)) :: !late;
        wait := Clock.us_of_ns (pop_t.(i) - push_t.(i)) :: !wait;
        exec := Clock.us_of_ns (done_t.(i) - pop_t.(i)) :: !exec;
        ecls := ci :: !ecls
      end
    end
  done;
  let sum = Array.fold_left ( + ) 0 in
  let d = Runtime_intf.{
    n_commits = s1.n_commits - s0.n_commits;
    n_aborts = s1.n_aborts - s0.n_aborts;
    n_conflicts = s1.n_conflicts - s0.n_conflicts;
    n_enemy_aborts = s1.n_enemy_aborts - s0.n_enemy_aborts;
    n_self_aborts = s1.n_self_aborts - s0.n_self_aborts;
    n_blocks = s1.n_blocks - s0.n_blocks;
    n_backoffs = s1.n_backoffs - s0.n_backoffs;
  } in
  {
    submitted; completed; dropped;
    lat_us = Array.of_list !lat;
    late_us = Array.of_list !late;
    wait_us = Array.of_list !wait;
    exec_us = Array.of_list !exec;
    exec_cls = Array.of_list !ecls;
    elapsed_s;
    push_ns = !push_ns;
    pushes = n;
    pop_ns = sum w_pop_ns;
    pops = sum w_pops;
    rmw_incr = sum w_rmw;
    minor_words = Array.fold_left ( +. ) 0. w_minor;
    stats = d;
  }

(** Sum of every value in the store, read in small transactions on a
    fresh runtime of the store's backend (the workers have stopped). *)
let value_sum backend store =
  let rt = Stm.create ~backend (module Tcm_core.Greedy : Cm_intf.S) in
  let n = Store.n_keys store in
  let total = ref 0 in
  let lo = ref 0 in
  while !lo < n do
    let a = !lo and b = min n (!lo + 1024) in
    total :=
      !total
      + Stm.atomically rt (fun tx ->
            let acc = ref 0 in
            for k = a to b - 1 do
              match Store.get tx store k with Some v -> acc := !acc + v | None -> ()
            done;
            !acc);
    lo := b
  done;
  !total

(** The preloaded store's sum: value = key for keys [0 .. n-1]. *)
let initial_sum n = n * (n - 1) / 2

let sum_stats (l : Runtime.stats_snapshot list) : Runtime.stats_snapshot =
  let f g = List.fold_left (fun a s -> a + g s) 0 l in
  {
    n_commits = f (fun s -> s.Runtime.n_commits);
    n_aborts = f (fun s -> s.n_aborts);
    n_conflicts = f (fun s -> s.n_conflicts);
    n_enemy_aborts = f (fun s -> s.n_enemy_aborts);
    n_self_aborts = f (fun s -> s.n_self_aborts);
    n_blocks = f (fun s -> s.n_blocks);
    n_backoffs = f (fun s -> s.n_backoffs);
  }

(** Several passes as one: counts and times summed, samples pooled. *)
let concat (l : result list) =
  let ints f = Array.init Sclass.count (fun k -> List.fold_left (fun a r -> a + (f r).(k)) 0 l) in
  let sum f = List.fold_left (fun a r -> a + f r) 0 l in
  let fsum f = List.fold_left (fun a r -> a +. f r) 0. l in
  let cat f = Array.concat (List.map f l) in
  {
    submitted = ints (fun r -> r.submitted);
    completed = ints (fun r -> r.completed);
    dropped = ints (fun r -> r.dropped);
    lat_us = cat (fun r -> r.lat_us);
    late_us = cat (fun r -> r.late_us);
    wait_us = cat (fun r -> r.wait_us);
    exec_us = cat (fun r -> r.exec_us);
    exec_cls = cat (fun r -> r.exec_cls);
    elapsed_s = fsum (fun r -> r.elapsed_s);
    push_ns = sum (fun r -> r.push_ns);
    pushes = sum (fun r -> r.pushes);
    pop_ns = sum (fun r -> r.pop_ns);
    pops = sum (fun r -> r.pops);
    rmw_incr = sum (fun r -> r.rmw_incr);
    minor_words = fsum (fun r -> r.minor_words);
    stats = sum_stats (List.map (fun r -> r.stats) l);
  }
