(* Tests for Bunshin_nxe: lockstep modes, divergence detection, execution
   groups, weak determinism, sanitizer-syscall tolerance. *)

module M = Bunshin_machine.Machine
module Sc = Bunshin_syscall.Syscall
module Trace = Bunshin_program.Trace
module Program = Bunshin_program.Program
module San = Bunshin_sanitizer.Sanitizer
module Cost = Bunshin_sanitizer.Cost_model
module Nxe = Bunshin_nxe.Nxe
module Serve = Bunshin_serve.Serve
module Server = Bunshin_workloads.Server

let work c = Trace.Work { func = "f"; cost = c }
let wr ?(args = [ 1L; 64L ]) () = Trace.Sys (Sc.write ~args ())
let rd ?(args = [ 3L; 64L ]) () = Trace.Sys (Sc.read ~args ())

(* A CPU+syscall mix trace. *)
let basic_trace ?(units = 20) () =
  List.concat (List.init units (fun i -> [ work 50.0; wr ~args:[ 1L; Int64.of_int i ] () ]))

let names n = List.init n (fun i -> Printf.sprintf "v%d" i)

let run ?config ?machine_config n trace =
  Nxe.run_traces ?config ?machine_config ~names:(names n) (List.init n (fun _ -> trace))

let finished r = r.Nxe.outcome = `All_finished

let check_aborted msg r =
  Alcotest.(check bool) msg true
    (match r.Nxe.outcome with `Aborted _ -> true | `All_finished -> false)

(* ------------------------------------------------------------------ *)
(* Basic synchronization *)

let test_identical_variants_finish () =
  let r = run 3 (basic_trace ()) in
  Alcotest.(check bool) "all finished" true (finished r);
  Alcotest.(check int) "synced all writes" 20 r.Nxe.synced_syscalls;
  Alcotest.(check int) "one channel" 1 r.Nxe.channels

let test_single_variant_degenerates () =
  let r = run 1 (basic_trace ()) in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check bool) "time sane" true (r.Nxe.total_time >= 1000.0)

let test_sync_overhead_small () =
  (* NXE overhead over a solo run should be modest for a CPU-heavy trace. *)
  let trace = basic_trace ~units:50 () in
  let solo = run 1 trace in
  let nxe3 = run 3 trace in
  let oh =
    Bunshin_util.Stats.overhead ~baseline:solo.Nxe.total_time ~measured:nxe3.Nxe.total_time
  in
  Alcotest.(check bool) (Printf.sprintf "overhead %.3f < 0.5" oh) true (oh < 0.5);
  Alcotest.(check bool) "positive" true (oh > 0.0)

let test_selective_not_slower_than_strict () =
  (* A read-heavy trace: selective mode skips lockstep on reads. *)
  let trace =
    List.concat
      (List.init 40 (fun i -> [ work 10.0; rd ~args:[ 3L; Int64.of_int i ] () ]))
  in
  let strict = run ~config:Nxe.default_config 3 trace in
  let sel = run ~config:Nxe.selective 3 trace in
  Alcotest.(check bool) "both finish" true (finished strict && finished sel);
  Alcotest.(check bool)
    (Printf.sprintf "selective %.1f <= strict %.1f" sel.Nxe.total_time strict.Nxe.total_time)
    true
    (sel.Nxe.total_time <= strict.Nxe.total_time +. 1e-6)

let test_selective_still_locksteps_writes () =
  let trace = basic_trace () in
  let r = run ~config:Nxe.selective 3 trace in
  Alcotest.(check int) "all writes locksteped" 20 r.Nxe.lockstep_syscalls

let test_strict_locksteps_everything () =
  let trace = List.concat (List.init 10 (fun _ -> [ work 5.0; rd () ])) in
  let r = run ~config:Nxe.default_config 2 trace in
  Alcotest.(check int) "all synced locksteped" r.Nxe.synced_syscalls r.Nxe.lockstep_syscalls

(* ------------------------------------------------------------------ *)
(* Divergence detection *)

let test_argument_divergence_detected () =
  let leader = [ work 10.0; wr ~args:[ 1L; 42L ] () ] in
  let follower = [ work 10.0; wr ~args:[ 1L; 666L ] () ] in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  check_aborted "argument mismatch aborts" r;
  match r.Nxe.outcome with
  | `Aborted a ->
    Alcotest.(check int) "variant 1 diverged" 1 a.Nxe.al_variant;
    Alcotest.(check int) "at position 0" 0 a.Nxe.al_position;
    (* The alert names the offending syscall itself, not just a string. *)
    Alcotest.(check int) "channel id" 0 a.Nxe.al_channel;
    (match (a.Nxe.al_expected_sc, a.Nxe.al_got_sc) with
     | Some exp, Some got ->
       Alcotest.(check string) "expected syscall name" "write" exp.Sc.name;
       Alcotest.(check (list int64)) "expected args" [ 1L; 42L ] exp.Sc.args;
       Alcotest.(check string) "offending syscall name" "write" got.Sc.name;
       Alcotest.(check (list int64)) "offending args" [ 1L; 666L ] got.Sc.args
     | _ -> Alcotest.fail "alert should carry both syscalls")
  | `All_finished -> ()

let test_selective_alert_carries_syscalls () =
  (* Same content guarantee under selective lockstep: the write still
     locksteps, and the alert names both sides' syscalls. *)
  let leader = [ work 10.0; wr ~args:[ 1L; 42L ] () ] in
  let follower = [ work 10.0; wr ~args:[ 1L; 666L ] () ] in
  let r =
    Nxe.run_traces ~config:Nxe.selective ~names:(names 2) [ leader; follower ]
  in
  check_aborted "selective argument mismatch aborts" r;
  match r.Nxe.outcome with
  | `Aborted a ->
    Alcotest.(check int) "channel id" 0 a.Nxe.al_channel;
    (match a.Nxe.al_got_sc with
     | Some got ->
       Alcotest.(check string) "offending syscall name" "write" got.Sc.name;
       Alcotest.(check (list int64)) "offending args" [ 1L; 666L ] got.Sc.args
     | None -> Alcotest.fail "alert should carry the offending syscall")
  | `All_finished -> ()

let test_sequence_alert_syscall_content () =
  (* A follower's extra syscall: got is the extra call, expected is
     end-of-stream (None). *)
  let leader = [ work 10.0; wr ~args:[ 1L; 5L ] () ] in
  let follower = [ work 10.0; wr ~args:[ 1L; 5L ] (); rd ~args:[ 3L; 9L ] () ] in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  check_aborted "extra follower syscall aborts" r;
  match r.Nxe.outcome with
  | `Aborted a ->
    Alcotest.(check bool) "no expected syscall" true (a.Nxe.al_expected_sc = None);
    (match a.Nxe.al_got_sc with
     | Some got ->
       Alcotest.(check string) "extra syscall name" "read" got.Sc.name;
       Alcotest.(check (list int64)) "extra syscall args" [ 3L; 9L ] got.Sc.args
     | None -> Alcotest.fail "alert should carry the extra syscall")
  | `All_finished -> ()

let test_syscall_name_divergence_detected () =
  let leader = [ work 10.0; wr () ] in
  let follower = [ work 10.0; rd () ] in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  check_aborted "name mismatch aborts" r

let test_sequence_divergence_follower_extra () =
  let leader = [ work 10.0; wr () ] in
  let follower = [ work 10.0; wr (); wr () ] in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  check_aborted "extra follower syscall aborts" r

let test_sequence_divergence_leader_extra () =
  let leader = [ work 10.0; wr (); wr () ] in
  let follower = [ work 10.0; wr () ] in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  check_aborted "extra leader syscall aborts" r

let test_divergence_aborts_all_variants_quickly () =
  (* After the alert, the long tail of variant work is skipped. *)
  let tail = List.init 100 (fun _ -> work 100.0) in
  let leader = (work 1.0 :: wr ~args:[ 1L; 1L ] () :: tail) in
  let follower = (work 1.0 :: wr ~args:[ 1L; 2L ] () :: tail) in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  check_aborted "aborted" r;
  Alcotest.(check bool) "stopped early" true (r.Nxe.total_time < 5000.0)

let test_divergence_third_variant () =
  let good = [ work 5.0; wr ~args:[ 1L; 7L ] () ] in
  let bad = [ work 5.0; wr ~args:[ 1L; 8L ] () ] in
  let r = Nxe.run_traces ~names:(names 3) [ good; good; bad ] in
  check_aborted "aborted" r;
  match r.Nxe.outcome with
  | `Aborted a -> Alcotest.(check int) "variant 2" 2 a.Nxe.al_variant
  | `All_finished -> ()

(* ------------------------------------------------------------------ *)
(* Sanitizer-introduced syscalls (§3.3) *)

let test_memory_syscalls_not_compared () =
  (* One variant issues extra mmaps mid-stream (sanitizer metadata): no
     false alert. *)
  let leader = [ work 10.0; wr (); work 10.0; wr ~args:[ 1L; 2L ] () ] in
  let follower =
    [
      work 10.0;
      Trace.Sys (Sc.mmap ());
      wr ();
      Trace.Sys (Sc.munmap ());
      work 10.0;
      wr ~args:[ 1L; 2L ] ();
    ]
  in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  Alcotest.(check bool) "no false alert" true (finished r)

let test_vdso_not_synchronized () =
  let leader = [ work 10.0; Trace.Sys (Sc.gettimeofday_vdso ()); wr () ] in
  let follower = [ work 10.0; wr () ] in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  Alcotest.(check bool) "vdso ignored" true (finished r)

let test_pre_main_and_post_exit_not_synchronized () =
  (* Differently-sanitized builds: ASan variant scans /proc before main and
     writes a report at exit; baseline does neither.  The markers fence
     synchronization so no alert fires — the paper's empirical claim. *)
  let body = [ work 10.0; wr (); work 10.0 ] in
  let asan_like =
    [ Trace.Sys (Sc.make "openat"); Trace.Sys (Sc.read ()); Trace.Sys (Sc.mmap ()) ]
    @ (Trace.Marker Trace.Main_entered :: body)
    @ [ Trace.Marker Trace.About_to_exit; wr ~args:[ 2L; 999L ] () ]
  in
  let plain =
    (Trace.Marker Trace.Main_entered :: body) @ [ Trace.Marker Trace.About_to_exit ]
  in
  let r = Nxe.run_traces ~names:(names 2) [ asan_like; plain ] in
  Alcotest.(check bool) "no false alert across phases" true (finished r);
  Alcotest.(check int) "only the body write synced" 1 r.Nxe.synced_syscalls

let test_differently_sanitized_builds_no_false_alert () =
  (* Full pipeline check: the same program built with ASan, MSan and
     baseline produces synchronizable traces. *)
  let prog =
    {
      Program.name = "p";
      funcs = [ { Program.fn_name = "f"; fn_profile = Cost.typical_profile } ];
      working_set = 1.0;
      gen_trace =
        (fun _ ->
          List.concat
            (List.init 8 (fun i -> [ work 100.0; wr ~args:[ 1L; Int64.of_int i ] () ])));
    }
  in
  let builds =
    [ Program.full [ San.asan ] prog; Program.full [ San.msan ] prog; Program.baseline prog ]
  in
  let r = Nxe.run_builds ~seed:3 builds in
  Alcotest.(check bool) "no false alert" true (finished r)

(* ------------------------------------------------------------------ *)
(* Ring buffer and syscall gap *)

let test_strict_gap_at_most_one () =
  let r = run ~config:Nxe.default_config 3 (basic_trace ()) in
  Alcotest.(check bool) "gap <= 1" true (r.Nxe.max_syscall_gap <= 1)

(* Same syscall stream, follower computes 5x slower (e.g. a heavily
   instrumented variant): the leader runs ahead through the ring. *)
let asymmetric_traces () =
  let mk cost =
    List.concat (List.init 30 (fun i -> [ work cost; rd ~args:[ 3L; Int64.of_int i ] () ]))
  in
  [ mk 2.0; mk 10.0 ]

let test_selective_gap_can_grow () =
  let r =
    Nxe.run_traces
      ~config:{ Nxe.selective with ring_capacity = 16 }
      ~names:(names 2) (asymmetric_traces ())
  in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check bool)
    (Printf.sprintf "gap %d > 1" r.Nxe.max_syscall_gap)
    true (r.Nxe.max_syscall_gap > 1)

let test_ring_capacity_bounds_gap () =
  let r =
    Nxe.run_traces
      ~config:{ Nxe.selective with ring_capacity = 4 }
      ~names:(names 2) (asymmetric_traces ())
  in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check bool)
    (Printf.sprintf "gap %d <= 5" r.Nxe.max_syscall_gap)
    true (r.Nxe.max_syscall_gap <= 5)

let test_ring_capacity_validated () =
  (* Capacity <= 0 would deadlock on the first non-lockstep syscall
     (followers only consume released slots); it must be rejected at
     entry, not discovered as a hang. *)
  List.iter
    (fun cap ->
      List.iter
        (fun base ->
          Alcotest.check_raises
            (Printf.sprintf "capacity %d rejected" cap)
            (Invalid_argument "Nxe.run_traces: ring_capacity must be >= 1")
            (fun () ->
              ignore
                (Nxe.run_traces
                   ~config:{ base with Nxe.ring_capacity = cap }
                   ~names:(names 2)
                   [ basic_trace (); basic_trace () ])))
        [ Nxe.default_config; Nxe.selective ])
    [ 0; -3 ]

let test_capacity_one_tightest_ring () =
  (* Capacity 1: at most one unconsumed slot in flight.  The run-ahead gap
     sampled at publish can reach 2 (the just-published slot plus the one
     being consumed) but never beyond, and the group still finishes. *)
  let r =
    Nxe.run_traces
      ~config:{ Nxe.selective with ring_capacity = 1 }
      ~names:(names 2) (asymmetric_traces ())
  in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check bool)
    (Printf.sprintf "gap %d <= 2" r.Nxe.max_syscall_gap)
    true
    (r.Nxe.max_syscall_gap <= 2)

let test_strict_mode_keeps_slow_follower_close () =
  (* In strict mode the same asymmetric pair never drifts. *)
  let r = Nxe.run_traces ~config:Nxe.default_config ~names:(names 2) (asymmetric_traces ()) in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check bool) "gap <= 1" true (r.Nxe.max_syscall_gap <= 1)

(* ------------------------------------------------------------------ *)
(* Multithreading and execution groups *)

let mt_trace () =
  let worker tag =
    [
      work 20.0;
      Trace.Lock 0;
      work 5.0;
      Trace.Unlock 0;
      Trace.Sys (Sc.write ~args:[ 1L; tag ] ());
    ]
  in
  [ Trace.Spawn (worker 10L); Trace.Spawn (worker 20L) ] @ worker 0L

let test_multithreaded_channels () =
  let r = run 2 (mt_trace ()) in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check int) "three channels" 3 r.Nxe.channels;
  Alcotest.(check int) "three writes synced" 3 r.Nxe.synced_syscalls

let test_weak_determinism_replays () =
  let r = run 2 (mt_trace ()) in
  (* Leader records 3 lock acquisitions; 1 follower replays all 3. *)
  Alcotest.(check int) "order list" 3 r.Nxe.order_list_length;
  Alcotest.(check int) "replays" 3 r.Nxe.det_replays

let test_weak_determinism_off () =
  let cfg = { Nxe.default_config with weak_determinism = false } in
  let r = run ~config:cfg 2 (mt_trace ()) in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check int) "no ordering recorded" 0 r.Nxe.order_list_length

let test_weak_determinism_costs () =
  (* Lock-heavy trace: weak determinism should add measurable overhead
     (the ~8.5% of §3.3, magnitude depends on lock frequency). *)
  let lock_heavy =
    List.concat (List.init 50 (fun _ -> [ Trace.Lock 0; work 2.0; Trace.Unlock 0 ]))
  in
  let on = run 2 lock_heavy in
  let off = run ~config:{ Nxe.default_config with weak_determinism = false } 2 lock_heavy in
  Alcotest.(check bool) "costs more" true (on.Nxe.total_time > off.Nxe.total_time)

let test_barrier_participates () =
  let worker = [ work 5.0; Trace.Barrier (0, 3) ] in
  let trace = [ Trace.Spawn worker; Trace.Spawn worker ] @ worker in
  let r = run 2 trace in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check int) "3 barrier arrivals ordered" 3 r.Nxe.order_list_length

let test_fork_new_execution_group () =
  let child = [ work 10.0; wr ~args:[ 1L; 77L ] () ] in
  let trace = [ work 5.0; Trace.Fork child; work 5.0; wr ~args:[ 1L; 1L ] () ] in
  let r = run 2 trace in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check int) "parent + child channels" 2 r.Nxe.channels;
  Alcotest.(check int) "both writes synced" 2 r.Nxe.synced_syscalls

let test_fork_child_divergence_detected () =
  let child_ok = [ work 10.0; wr ~args:[ 1L; 77L ] () ] in
  let child_bad = [ work 10.0; wr ~args:[ 1L; 78L ] () ] in
  let leader = [ Trace.Fork child_ok; wr ~args:[ 1L; 1L ] () ] in
  let follower = [ Trace.Fork child_bad; wr ~args:[ 1L; 1L ] () ] in
  let r = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  check_aborted "child divergence aborts" r

let test_daemon_style_processes_independent () =
  (* Server pattern: children handle different "connections" concurrently;
     each child pair synchronizes on its own channel. *)
  let child i = [ work 10.0; wr ~args:[ 1L; Int64.of_int i ] () ] in
  let trace = List.init 4 (fun i -> Trace.Fork (child i)) @ [ work 1.0 ] in
  let r = run 3 trace in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check int) "five channels" 5 r.Nxe.channels

(* ------------------------------------------------------------------ *)
(* Scalability shape *)

let test_more_variants_more_overhead () =
  let trace = basic_trace ~units:30 () in
  let mcfg cores = { M.default_config with cores; llc_capacity = 8.0 } in
  let time n =
    (Nxe.run_traces ~machine_config:(mcfg 12) ~working_sets:(List.init n (fun _ -> 4.0))
       ~names:(names n)
       (List.init n (fun _ -> trace)))
      .Nxe.total_time
  in
  let t2 = time 2 and t4 = time 4 and t8 = time 8 in
  Alcotest.(check bool) (Printf.sprintf "t2=%.0f <= t4=%.0f" t2 t4) true (t2 <= t4 +. 1e-6);
  Alcotest.(check bool) (Printf.sprintf "t4=%.0f <= t8=%.0f" t4 t8) true (t4 <= t8 +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Random structured traces: generate a tree of ops (work, syscalls,
   locks, barriers, spawns) and check the engine's liveness and
   no-false-positive guarantees on identical variants. *)
let gen_trace_ops =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (4, map (fun c -> `Work (float_of_int (1 + c))) (int_bound 30));
        (2, map (fun i -> `Read i) (int_bound 100));
        (1, map (fun i -> `Write i) (int_bound 100));
        (2, map (fun l -> `Locked l) (int_bound 2));
      ]
  in
  list_size (1 -- 25) leaf

let trace_of_ops ?(spawn = false) ops =
  let body =
    List.concat_map
      (function
        | `Work c -> [ work c ]
        | `Read i -> [ rd ~args:[ 3L; Int64.of_int i ] () ]
        | `Write i -> [ wr ~args:[ 1L; Int64.of_int i ] () ]
        | `Locked l ->
          [ Trace.Lock l; Trace.Work { func = "crit"; cost = 1.0 }; Trace.Unlock l ])
      ops
  in
  if spawn then Trace.Spawn body :: body else body

let prop_random_traces_identical_clean =
  QCheck.Test.make ~name:"nxe: random identical variants stay clean" ~count:60
    (QCheck.make gen_trace_ops)
    (fun ops ->
      let t = trace_of_ops ops in
      let strict = run 3 t in
      let sel = run ~config:Nxe.selective 3 t in
      finished strict && finished sel)

let prop_random_threaded_traces_clean =
  QCheck.Test.make ~name:"nxe: random threaded variants stay clean" ~count:40
    (QCheck.make gen_trace_ops)
    (fun ops ->
      let t = trace_of_ops ~spawn:true ops in
      finished (run 2 t))

let prop_identical_variants_never_alert =
  QCheck.Test.make ~name:"nxe: identical variants never alert" ~count:40
    QCheck.(pair (int_range 1 4) (int_range 1 15))
    (fun (n, units) ->
      let trace =
        List.concat
          (List.init units (fun i -> [ work 5.0; wr ~args:[ 1L; Int64.of_int i ] () ]))
      in
      finished (run n trace))

let prop_divergent_args_always_alert =
  QCheck.Test.make ~name:"nxe: any arg difference alerts" ~count:40
    QCheck.(pair (int_range 0 9) small_int)
    (fun (pos, salt) ->
      let mk tag =
        List.concat
          (List.init 10 (fun i ->
               let v = if i = pos then tag else Int64.of_int i in
               [ work 2.0; wr ~args:[ 1L; v ] () ]))
      in
      let r =
        Nxe.run_traces ~names:(names 2)
          [ mk 1000L; mk (Int64.of_int (1001 + salt)) ]
      in
      match r.Nxe.outcome with `Aborted a -> a.Nxe.al_position = pos | `All_finished -> false)

(* Strict and selective lockstep must reach the same divergence verdict on
   the same traces (first slice of the protocol-invariant work, ROADMAP
   item 5): selective mode changes WHEN the leader may run ahead, never
   WHAT counts as a divergence, so an injected argument mutation aborts
   both modes at the same (channel, position, variant) — and a clean
   corpus aborts neither. *)
let mutate_kth_syscall ~k ~delta trace =
  let seen = ref 0 in
  List.map
    (function
      | Trace.Sys sc when sc.Sc.args <> [] ->
        let here = !seen in
        incr seen;
        if here = k then
          let args =
            match sc.Sc.args with a :: x :: rest -> a :: Int64.add x delta :: rest | l -> l
          in
          Trace.Sys (Sc.make ~args sc.Sc.name)
        else Trace.Sys sc
      | op -> op)
    trace

let verdict r =
  match r.Nxe.outcome with
  | `All_finished -> None
  | `Aborted a -> Some (a.Nxe.al_channel, a.Nxe.al_position, a.Nxe.al_variant)

let prop_strict_selective_same_verdict =
  QCheck.Test.make ~name:"nxe: strict and selective agree on the verdict" ~count:60
    QCheck.(triple (QCheck.make gen_trace_ops) (int_range 0 20) bool)
    (fun (ops, k, clean) ->
      let base = trace_of_ops ops in
      let follower = if clean then base else mutate_kth_syscall ~k ~delta:500L base in
      let run cfg = Nxe.run_traces ~config:cfg ~names:(names 2) [ base; follower ] in
      let s = verdict (run Nxe.default_config) in
      let l = verdict (run Nxe.selective) in
      s = l)

(* ------------------------------------------------------------------ *)
(* Flight recorder: windows over the slot ring *)

module F = Bunshin_forensics.Forensics
module Faults = Bunshin_faults.Faults
module Cluster = Bunshin_cluster.Cluster

let positions tape = List.map (fun (r : F.syscall_rec) -> r.F.r_pos) tape

let incident_of r =
  match r.Nxe.incident with Some inc -> inc | None -> Alcotest.fail "no incident filed"

(* n identical [write(1, i)] streams; [bad] rewrites one variant's slot. *)
let stream ?(bad = fun _ _ -> None) ~len n =
  List.init n (fun v ->
      List.concat
        (List.init len (fun i ->
             let args = match bad v i with Some a -> a | None -> [ 1L; Int64.of_int i ] in
             [ work (2.0 +. float_of_int v); wr ~args () ])))

let fault_policy policy = { Nxe.policy; heartbeat_timeout = infinity; restart_backoff = 50.0 }

let test_window_retention () =
  (* The window is the last [recorder_depth] records, oldest first, with
     the recorded syscalls and times; the follower's latest record is its
     own divergent syscall. *)
  let r =
    Nxe.run_traces
      ~config:{ Nxe.default_config with recorder_depth = 3 }
      ~names:(names 2)
      (stream ~len:40 2 ~bad:(fun v i -> if v = 1 && i = 30 then Some [ 1L; 999L ] else None))
  in
  let inc = incident_of r in
  Alcotest.(check int) "position" 30 inc.F.inc_position;
  Array.iter
    (fun tape -> Alcotest.(check (list int)) "last 3 retained" [ 28; 29; 30 ] (positions tape))
    inc.F.inc_tapes;
  List.iter
    (fun (r : F.syscall_rec) ->
      Alcotest.(check string) "name kept" "write" r.F.r_name;
      if r.F.r_pos < 30 then
        Alcotest.(check (list int64)) "ring syscall" [ 1L; Int64.of_int r.F.r_pos ] r.F.r_args;
      Alcotest.(check bool) "time kept" true (r.F.r_time > 0.0))
    inc.F.inc_tapes.(1);
  Alcotest.(check (list int64)) "own divergent syscall last" [ 1L; 999L ]
    (List.nth inc.F.inc_tapes.(1) 2).F.r_args

let test_window_lookup () =
  (* Selective run-ahead: the leader executes reads past the slot a
     follower diverges on.  Its vote there is outside its last records, so
     it comes from the ring with time 0.0; the follower's own vote is in
     its window, which the ring kept although the leader ran ahead. *)
  let mk v =
    List.concat
      (List.init 300 (fun i ->
           let x = if v = 1 && i = 200 then 999L else Int64.of_int i in
           [ work (if v = 0 then 1.0 else 9.0); rd ~args:[ 3L; x ] () ]))
  in
  let r =
    Nxe.run_traces
      ~config:{ Nxe.selective with recorder_depth = 4; ring_capacity = 8 }
      ~names:(names 2) [ mk 0; mk 1 ]
  in
  let inc = incident_of r in
  Alcotest.(check int) "position" 200 inc.F.inc_position;
  (match inc.F.inc_votes.(0) with
   | F.Issued r ->
     Alcotest.(check (list int64)) "leader vote from the ring" [ 3L; 200L ] r.F.r_args;
     Alcotest.(check (float 0.0)) "outside its window: time 0.0" 0.0 r.F.r_time
   | _ -> Alcotest.fail "leader should have issued the slot");
  (match inc.F.inc_votes.(1) with
   | F.Issued r ->
     Alcotest.(check (list int64)) "follower's own syscall" [ 3L; 999L ] r.F.r_args;
     Alcotest.(check bool) "recorded time" true (r.F.r_time > 0.0)
   | _ -> Alcotest.fail "follower should have issued the slot");
  Alcotest.(check (list int)) "follower window kept by the watermark" [ 197; 198; 199; 200 ]
    (positions inc.F.inc_tapes.(1));
  let lead = positions inc.F.inc_tapes.(0) in
  Alcotest.(check int) "leader window holds 4 records" 4 (List.length lead);
  Alcotest.(check bool) "leader window ran ahead" true (List.hd lead > 200)

let test_window_bad_depth () =
  Alcotest.check_raises "depth 0 rejected"
    (Invalid_argument "Nxe.run_traces: recorder_depth must be >= 1") (fun () ->
      ignore
        (Nxe.run_traces ~config:{ Nxe.default_config with recorder_depth = 0 } ~names:(names 2)
           (stream ~len:2 2)))

let test_window_frozen_after_quarantine () =
  (* Multi-channel run: v1 dies early and is quarantined, the survivors
     run long enough for the root ring to reclaim far past v1's window,
     then v2 diverges on the root channel.  v1's window in the fatal
     incident is the one it had when it retired. *)
  let worker = List.concat (List.init 50 (fun i -> [ work 2.0; wr ~args:[ 2L; Int64.of_int i ] () ])) in
  let traces = List.map (fun t -> Trace.Spawn worker :: t) (stream ~len:400 3) in
  let faults =
    Faults.make
      [
        { Faults.i_variant = 1; i_at = 3; i_kind = Faults.Die };
        { Faults.i_variant = 2; i_at = 350; i_kind = Faults.Corrupt { c_arg = 1; c_delta = 5L } };
      ]
  in
  let r =
    Nxe.run_traces
      ~config:{ Nxe.default_config with fault_policy = fault_policy Nxe.Quarantine }
      ~faults ~names:(names 3) traces
  in
  let fault_inc =
    match r.Nxe.fault_incidents with [ i ] -> i | _ -> Alcotest.fail "one quarantine expected"
  in
  let inc = incident_of r in
  Alcotest.(check int) "quarantine filed on the root channel" 0 fault_inc.F.inc_channel;
  Alcotest.(check int) "divergence on the root channel" 0 inc.F.inc_channel;
  Alcotest.(check bool) "far past the retired window" true (inc.F.inc_position >= 250);
  Alcotest.(check bool) "retired window not empty" true (fault_inc.F.inc_tapes.(1) <> []);
  Alcotest.(check bool) "retired window frozen" true
    (inc.F.inc_tapes.(1) = fault_inc.F.inc_tapes.(1));
  Alcotest.(check bool) "retired follower votes Exited" true (inc.F.inc_votes.(1) = F.Exited);
  Alcotest.(check bool) "majority still blames v2" true (inc.F.inc_blamed = 2)

let test_window_skips_signal_delivery () =
  (* A signal delivered mid-stream: the leader records the delivery slot,
     the follower consumes it without issuing it, so its window of the
     same depth reaches one slot further back. *)
  let handler = [ work 1.0; wr ~args:[ 2L; 1L ] () ] in
  let r =
    Nxe.run_traces
      ~config:{ Nxe.default_config with recorder_depth = 6 }
      ~signals:[ (60.0, handler) ]
      ~names:(names 2)
      (stream ~len:30 2 ~bad:(fun v i -> if v = 1 && i = 14 then Some [ 1L; 999L ] else None))
  in
  let inc = incident_of r in
  let lead = inc.F.inc_tapes.(0) and fol = inc.F.inc_tapes.(1) in
  Alcotest.(check int) "leader depth" 6 (List.length lead);
  Alcotest.(check int) "follower depth" 6 (List.length fol);
  let sig_pos =
    List.filter_map
      (fun (r : F.syscall_rec) -> if r.F.r_name = "signal_delivery" then Some r.F.r_pos else None)
      lead
  in
  (match sig_pos with
   | [ p ] ->
     Alcotest.(check bool) "follower skips the delivery slot" false
       (List.mem p (positions fol));
     Alcotest.(check bool) "follower window spans it" true (List.hd (positions fol) < p)
   | _ -> Alcotest.fail "expected one delivery slot in the leader's window");
  Alcotest.(check int) "windows end at the divergence" inc.F.inc_position
    (List.nth (positions fol) 5)

let test_two_followers_diverge_tie () =
  (* Both followers corrupt the same slot differently: no two votes
     agree, so blame stays a tie on the flagged follower. *)
  let faults =
    Faults.make
      [
        { Faults.i_variant = 1; i_at = 25; i_kind = Faults.Corrupt { c_arg = 1; c_delta = 5L } };
        { Faults.i_variant = 2; i_at = 25; i_kind = Faults.Corrupt { c_arg = 1; c_delta = 7L } };
      ]
  in
  let r = Nxe.run_traces ~faults ~names:(names 3) (stream ~len:40 3) in
  let inc = incident_of r in
  Alcotest.(check bool) "tie" true (inc.F.inc_basis = F.Tie);
  Alcotest.(check int) "position" 25 inc.F.inc_position;
  match r.Nxe.outcome with
  | `Aborted a ->
    Alcotest.(check int) "flagged follower blamed" a.Nxe.al_variant inc.F.inc_blamed;
    let own = List.nth (List.rev inc.F.inc_tapes.(a.Nxe.al_variant)) 0 in
    Alcotest.(check int) "flagged window ends at the slot" 25 own.F.r_pos;
    Alcotest.(check bool) "own corrupted syscall" true (own.F.r_args <> [ 1L; 25L ])
  | `All_finished -> Alcotest.fail "expected an abort"

let test_window_extra_past_exit () =
  (* A follower's extra syscall past the leader's exit has no ring slot:
     its window ends with that record, the leader votes Exited. *)
  let r =
    Nxe.run_traces ~names:(names 2)
      [ List.hd (stream ~len:20 1); List.hd (stream ~len:20 1) @ [ wr ~args:[ 5L; 5L ] () ] ]
  in
  let inc = incident_of r in
  Alcotest.(check int) "position" 20 inc.F.inc_position;
  Alcotest.(check bool) "leader exited" true (inc.F.inc_votes.(0) = F.Exited);
  let last = List.nth inc.F.inc_tapes.(1) (List.length inc.F.inc_tapes.(1) - 1) in
  Alcotest.(check int) "extra record past the ring" 20 last.F.r_pos;
  Alcotest.(check (list int64)) "its own syscall" [ 5L; 5L ] last.F.r_args;
  Alcotest.(check (list int)) "leader window" (List.init 16 (fun i -> 4 + i))
    (positions inc.F.inc_tapes.(0))

let test_window_restart_catch_up () =
  (* v1 dies at its 3rd syscall and is respawned; replaying from slot 0 it
     diverges at slot 6.  Its window holds only the records of the
     restarted run. *)
  let faults =
    Faults.make
      [
        { Faults.i_variant = 1; i_at = 2; i_kind = Faults.Die };
        { Faults.i_variant = 1; i_at = 6; i_kind = Faults.Corrupt { c_arg = 1; c_delta = 5L } };
      ]
  in
  let r =
    Nxe.run_traces
      ~config:{ Nxe.default_config with fault_policy = fault_policy Nxe.Restart_once }
      ~faults ~names:(names 3) (stream ~len:30 3)
  in
  let inc = incident_of r in
  Alcotest.(check int) "blamed the restarted follower" 1 inc.F.inc_blamed;
  Alcotest.(check int) "position" 6 inc.F.inc_position;
  Alcotest.(check (list int)) "catch-up records only" [ 0; 1; 2; 3; 4; 5; 6 ]
    (positions inc.F.inc_tapes.(1))

(* ------------------------------------------------------------------ *)
(* Soak: the engine's memory stays flat with run length *)

(* Words the engine allocates straight into the major heap (the ring's
   columns once they outgrow the minor heap; promotions are excluded).
   Full collections on both sides keep a major cycle in flight from
   skewing the counters. *)
let direct_major_words f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let r = f () in
  Gc.full_major ();
  let s1 = Gc.quick_stat () in
  (r, s1.Gc.major_words -. s1.Gc.promoted_words -. (s0.Gc.major_words -. s0.Gc.promoted_words))

(* [k] syncs, each a write or read under a lock, so the weak-determinism
   order list grows one entry per sync too.  The syscall values are
   shared, so the trace costs three list cells per sync. *)
let soak_trace k =
  let w = Sc.write ~args:[ 1L; 64L ] () and r = Sc.read ~args:[ 3L; 64L ] () in
  List.concat
    (List.init k (fun i -> [ Trace.Lock 0; Trace.Sys (if i mod 4 = 0 then w else r); Trace.Unlock 0 ]))

(* A warm-up run, then a short and a long run: the long one may allocate
   no more than a small constant more directly in the major heap (slot
   columns that double and are never reclaimed grow ~20 words per sync
   here). *)
let check_flat ~short ~long run =
  ignore (run (soak_trace 1000));
  let measure k =
    let trace = soak_trace k in
    let synced, words = direct_major_words (fun () -> run trace) in
    Alcotest.(check int) "every sync published" k synced;
    words
  in
  let ws = measure short in
  let wl = measure long in
  Alcotest.(check bool)
    (Printf.sprintf "direct major words flat: %.0f at %d syncs, %.0f at %d" ws short wl long)
    true
    (wl -. ws < 4096.0)

let test_soak_strict () =
  check_flat ~short:100_000 ~long:1_000_000 (fun t ->
      let r = Nxe.run_traces ~names:(names 2) [ t; t ] in
      Alcotest.(check bool) "finished" true (finished r);
      Alcotest.(check int) "order list covered" r.Nxe.synced_syscalls r.Nxe.order_list_length;
      r.Nxe.synced_syscalls)

let test_soak_replicated () =
  check_flat ~short:20_000 ~long:200_000 (fun t ->
      let config =
        { Cluster.default_config with nodes = 2; ship = Cluster.Selective_replicated }
      in
      let r = Cluster.run_traces ~config ~names:(names 3) [ t; t; t ] in
      Alcotest.(check bool) "finished" true (r.Cluster.outcome = `All_finished);
      r.Cluster.synced_syscalls)

let test_soak_quarantine () =
  (* The quarantined follower's cursor stops early; it must not pin the
     ring or the order list. *)
  check_flat ~short:20_000 ~long:200_000 (fun t ->
      let r =
        Nxe.run_traces
          ~config:{ Nxe.selective with fault_policy = fault_policy Nxe.Quarantine }
          ~faults:(Faults.make [ { Faults.i_variant = 1; i_at = 10; i_kind = Faults.Die } ])
          ~names:(names 3) [ t; t; t ]
      in
      Alcotest.(check (list int)) "v1 quarantined" [ 1 ] (Nxe.quarantined_variants r);
      r.Nxe.synced_syscalls)

(* ------------------------------------------------------------------ *)
(* Per-run allocation budget: a served request is one short run, so what
   the engine allocates before and after the trace is paid per request. *)

(* Minor words one run allocates, measured after a warm-up run (module
   initialisation is not a per-run cost) and a minor collection. *)
let minor_words_per_run f =
  ignore (f ());
  Gc.minor ();
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

let check_run_budget what ~budget f =
  let w = minor_words_per_run f in
  if w > budget then
    Alcotest.failf "%s: %.0f minor words per run (budget %.0f)" what w budget

let test_request_run_budget () =
  let src =
    Serve.jittered ~jitter:0.3 ~seed:7
      (Serve.server_source ~n:3 Server.Lighttpd ~file_kb:1 ~connections:16)
  in
  let traces = src.Serve.src_request ~req_id:0 in
  let run () = Nxe.run_traces ~config:Nxe.selective ~names:src.Serve.src_names traces in
  Alcotest.(check int) "one request is 3 syncs" 3 (run ()).Nxe.synced_syscalls;
  check_run_budget "jittered lighttpd request, 3 variants" ~budget:1800.0 run

let test_work_only_run_budget () =
  let t = [ work 10.0; work 5.0 ] in
  check_run_budget "work-only run, 3 variants" ~budget:1550.0 (fun () ->
      Nxe.run_traces ~config:Nxe.selective ~names:(names 3) [ t; t; t ])

(* Per-sync allocation on a long strict run: the publish/fetch/vote path
   and the machine under it.  Each effect a fiber performs costs the
   runtime's 2-word continuation (~15 per sync at n = 3); everything above
   that is engine allocation.  Measured as the whole run's minor words
   over its synchronized syscalls, set-up included. *)
let test_dense_sync_budget () =
  let funcs =
    List.map
      (fun f -> (f.Program.fn_name, 1.0))
      (Bunshin_workloads.Spec.find "bzip2").Bunshin_workloads.Bench.prog.Program.funcs
  in
  let t =
    Bunshin_workloads.Bench.cpu_trace ~funcs ~units:3000 ~unit_cost:2.0 ~syscall_every:2
      (Bunshin_util.Rng.create 0xb21b2)
  in
  let run () = Nxe.run_traces ~names:(names 3) [ t; t; t ] in
  let syncs = (run ()).Nxe.synced_syscalls in
  Alcotest.(check bool) "a dense run" true (syncs > 1000);
  let per_sync = minor_words_per_run run /. float_of_int syncs in
  if per_sync > 50.0 then
    Alcotest.failf "strict dense run, 3 variants: %.1f minor words per sync (budget 50)" per_sync

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "bunshin_nxe"
    [
      ( "sync",
        [
          Alcotest.test_case "identical variants finish" `Quick test_identical_variants_finish;
          Alcotest.test_case "single variant" `Quick test_single_variant_degenerates;
          Alcotest.test_case "sync overhead small" `Quick test_sync_overhead_small;
          Alcotest.test_case "selective <= strict" `Quick test_selective_not_slower_than_strict;
          Alcotest.test_case "selective locksteps writes" `Quick test_selective_still_locksteps_writes;
          Alcotest.test_case "strict locksteps everything" `Quick test_strict_locksteps_everything;
        ] );
      ( "divergence",
        [
          Alcotest.test_case "argument divergence" `Quick test_argument_divergence_detected;
          Alcotest.test_case "selective alert carries syscalls" `Quick
            test_selective_alert_carries_syscalls;
          Alcotest.test_case "sequence alert syscall content" `Quick
            test_sequence_alert_syscall_content;
          Alcotest.test_case "name divergence" `Quick test_syscall_name_divergence_detected;
          Alcotest.test_case "follower extra syscall" `Quick test_sequence_divergence_follower_extra;
          Alcotest.test_case "leader extra syscall" `Quick test_sequence_divergence_leader_extra;
          Alcotest.test_case "abort stops all" `Quick test_divergence_aborts_all_variants_quickly;
          Alcotest.test_case "third variant blamed" `Quick test_divergence_third_variant;
        ] );
      ( "sanitizer-syscalls",
        [
          Alcotest.test_case "memory class ignored" `Quick test_memory_syscalls_not_compared;
          Alcotest.test_case "vdso ignored" `Quick test_vdso_not_synchronized;
          Alcotest.test_case "pre-main/post-exit fenced" `Quick test_pre_main_and_post_exit_not_synchronized;
          Alcotest.test_case "different sanitizers no alert" `Quick test_differently_sanitized_builds_no_false_alert;
        ] );
      ( "ring",
        [
          Alcotest.test_case "strict gap <= 1" `Quick test_strict_gap_at_most_one;
          Alcotest.test_case "selective gap grows" `Quick test_selective_gap_can_grow;
          Alcotest.test_case "capacity bounds gap" `Quick test_ring_capacity_bounds_gap;
          Alcotest.test_case "capacity <= 0 rejected" `Quick test_ring_capacity_validated;
          Alcotest.test_case "capacity 1 tightest ring" `Quick test_capacity_one_tightest_ring;
          Alcotest.test_case "strict keeps follower close" `Quick test_strict_mode_keeps_slow_follower_close;
        ] );
      ( "groups",
        [
          Alcotest.test_case "multithreaded channels" `Quick test_multithreaded_channels;
          Alcotest.test_case "weak determinism replays" `Quick test_weak_determinism_replays;
          Alcotest.test_case "weak determinism off" `Quick test_weak_determinism_off;
          Alcotest.test_case "weak determinism costs" `Quick test_weak_determinism_costs;
          Alcotest.test_case "barrier participates" `Quick test_barrier_participates;
          Alcotest.test_case "fork new group" `Quick test_fork_new_execution_group;
          Alcotest.test_case "fork child divergence" `Quick test_fork_child_divergence_detected;
          Alcotest.test_case "daemon children independent" `Quick test_daemon_style_processes_independent;
        ] );
      ("scalability", [ Alcotest.test_case "monotone in N" `Quick test_more_variants_more_overhead ]);
      ( "recorder",
        [
          Alcotest.test_case "window retention" `Quick test_window_retention;
          Alcotest.test_case "window lookup" `Quick test_window_lookup;
          Alcotest.test_case "bad depth" `Quick test_window_bad_depth;
          Alcotest.test_case "frozen after quarantine" `Quick test_window_frozen_after_quarantine;
          Alcotest.test_case "skips signal delivery" `Quick test_window_skips_signal_delivery;
          Alcotest.test_case "two followers tie" `Quick test_two_followers_diverge_tie;
          Alcotest.test_case "extra past exit" `Quick test_window_extra_past_exit;
          Alcotest.test_case "restart catch-up" `Quick test_window_restart_catch_up;
        ] );
      ( "budget",
        [
          Alcotest.test_case "request run allocation" `Quick test_request_run_budget;
          Alcotest.test_case "work-only run allocation" `Quick test_work_only_run_budget;
          Alcotest.test_case "dense sync allocation" `Quick test_dense_sync_budget;
        ] );
      ( "soak",
        [
          Alcotest.test_case "strict 1e6 syncs flat" `Slow test_soak_strict;
          Alcotest.test_case "replicated 2e5 syncs flat" `Slow test_soak_replicated;
          Alcotest.test_case "quarantine 2e5 syncs flat" `Slow test_soak_quarantine;
        ] );
      ( "properties",
        qcheck
          [
            prop_identical_variants_never_alert;
            prop_divergent_args_always_alert;
            prop_random_traces_identical_clean;
            prop_random_threaded_traces_clean;
            prop_strict_selective_same_verdict;
          ] );
    ]
