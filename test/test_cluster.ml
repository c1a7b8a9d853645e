(* Tests for the distributed NXE (lib/cluster): placement, ship modes,
   verdict parity with the local engine, remote quarantine, wire
   accounting.  Companion to test_nxe.ml / test_faults.ml. *)

module M = Bunshin_machine.Machine
module Sc = Bunshin_syscall.Syscall
module Trace = Bunshin_program.Trace
module Nxe = Bunshin_nxe.Nxe
module Cluster = Bunshin_cluster.Cluster
module Net = Bunshin_net.Net
module Faults = Bunshin_faults.Faults
module F = Bunshin_forensics.Forensics
module Tel = Bunshin_telemetry.Telemetry

let work c = Trace.Work { func = "f"; cost = c }
let wr ?(args = [ 1L; 64L ]) () = Trace.Sys (Sc.write ~args ())
let rd ?(args = [ 3L; 64L ]) () = Trace.Sys (Sc.read ~args ())
let names n = List.init n (fun i -> Printf.sprintf "v%d" i)

let basic_trace ?(units = 20) () =
  List.concat (List.init units (fun i -> [ work 50.0; wr ~args:[ 1L; Int64.of_int i ] () ]))

let read_heavy ?(units = 40) () =
  List.concat
    (List.init units (fun i ->
         [ work 10.0; rd ~args:[ 3L; Int64.of_int i ] () ]
         @ (if i mod 8 = 0 then [ wr ~args:[ 1L; Int64.of_int i ] () ] else [])))

let modes = [ Cluster.Full_remote_lockstep; Cluster.Selective; Cluster.Selective_replicated ]

let cfg ?(nodes = 2) ?(ship = Cluster.Selective_replicated) ?placement ?fault_policy () =
  let c = { Cluster.default_config with nodes; ship } in
  let c = match placement with Some p -> { c with Cluster.placement = p } | None -> c in
  match fault_policy with Some fp -> { c with Cluster.fault_policy = fp } | None -> c

let run ?config ?coverage ?faults n trace =
  Cluster.run_traces ?config ?coverage ?faults ~names:(names n)
    (List.init n (fun _ -> trace))

let finished r = r.Cluster.outcome = `All_finished

(* ------------------------------------------------------------------ *)
(* Clean runs *)

let test_clean_all_modes_all_nodes () =
  let trace = basic_trace () in
  List.iter
    (fun nodes ->
      List.iter
        (fun ship ->
          let r = run ~config:(cfg ~nodes ~ship ()) 3 trace in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%d nodes finished" (Cluster.mode_name ship) nodes)
            true (finished r);
          Alcotest.(check int) "synced all writes" 20 r.Cluster.synced_syscalls;
          Alcotest.(check int) "executed all writes" 20 r.Cluster.executed_syscalls;
          Alcotest.(check int) "one channel" 1 r.Cluster.channels;
          Alcotest.(check int) "node stats per node" nodes
            (List.length r.Cluster.node_stats))
        modes)
    [ 1; 2; 3 ]

let test_single_node_no_wire () =
  (* Everything placed on node 0: the network is never used. *)
  let r = run ~config:(cfg ~nodes:1 ()) 3 (basic_trace ()) in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check int) "no bytes" 0 r.Cluster.bytes_on_wire;
  Alcotest.(check int) "no msgs" 0 r.Cluster.msgs_on_wire

let test_round_robin_placement () =
  let r = run ~config:(cfg ~nodes:2 ()) 4 (basic_trace ~units:4 ()) in
  Alcotest.(check (list int)) "v mod nodes" [ 0; 1; 0; 1 ] r.Cluster.placement

let test_pinned_placement () =
  let r =
    run ~config:(cfg ~nodes:3 ~placement:(Cluster.Pinned [ 0; 2; 2 ]) ()) 3
      (basic_trace ~units:4 ())
  in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check (list int)) "as pinned" [ 0; 2; 2 ] r.Cluster.placement

let test_remote_slower_than_local () =
  (* Same fleet, same work: paying the wire must not be free. *)
  let trace = basic_trace () in
  let local = run ~config:(cfg ~nodes:1 ()) 3 trace in
  let remote = run ~config:(cfg ~nodes:3 ~ship:Cluster.Full_remote_lockstep ()) 3 trace in
  Alcotest.(check bool)
    (Printf.sprintf "remote %.0f > local %.0f" remote.Cluster.total_time local.Cluster.total_time)
    true
    (remote.Cluster.total_time > local.Cluster.total_time)

let test_determinism_same_seed () =
  let lossy = { Net.latency_us = 40.0; bytes_per_us = 50.0; loss = 0.2; retransmit_us = 150.0 }
  and config = cfg ~nodes:3 ~ship:Cluster.Selective () in
  let config = { config with Cluster.link = lossy } in
  let r1 = run ~config 3 (read_heavy ()) and r2 = run ~config 3 (read_heavy ()) in
  Alcotest.(check bool) "finished" true (finished r1);
  Alcotest.(check (float 0.0)) "bit-stable total time" r1.Cluster.total_time r2.Cluster.total_time;
  Alcotest.(check int) "bit-stable bytes" r1.Cluster.bytes_on_wire r2.Cluster.bytes_on_wire;
  Alcotest.(check bool) "bit-stable finishes" true
    (r1.Cluster.variant_finish = r2.Cluster.variant_finish)

(* ------------------------------------------------------------------ *)
(* Ship modes: traffic shape *)

let bytes ?(n = 3) ?(nodes = 2) ship trace =
  let r = run ~config:(cfg ~nodes ~ship ()) n trace in
  Alcotest.(check bool) (Cluster.mode_name ship ^ " finished") true (finished r);
  (r.Cluster.bytes_on_wire, r)

let test_mode_traffic_ordering () =
  let trace = read_heavy () in
  let naive, rn = bytes Cluster.Full_remote_lockstep trace in
  let sel, rs = bytes Cluster.Selective trace in
  let repl, rr = bytes Cluster.Selective_replicated trace in
  Alcotest.(check bool)
    (Printf.sprintf "naive %d > selective %d" naive sel) true (naive > sel);
  Alcotest.(check bool)
    (Printf.sprintf "selective %d > replicated %d" sel repl) true (sel > repl);
  (* Naive locksteps everything; selective only the writes. *)
  Alcotest.(check int) "naive locksteps all" rn.Cluster.synced_syscalls rn.Cluster.lockstep_syscalls;
  Alcotest.(check int) "selective locksteps writes" 5 rs.Cluster.lockstep_syscalls;
  Alcotest.(check bool) "replication served reads" true (rr.Cluster.replicated_results > 0);
  Alcotest.(check int) "no replication outside that mode" 0 rs.Cluster.replicated_results;
  (* Remote acks flowed back in every mode. *)
  Alcotest.(check bool) "remote checks happened" true (rn.Cluster.remote_checked > 0);
  (* The per-kind split sums to the wire totals. *)
  List.iter
    (fun (r : Cluster.report) ->
      let t = r.Cluster.traffic in
      Alcotest.(check int) "traffic split sums to totals" r.Cluster.bytes_on_wire
        Cluster.(t.tf_ship + t.tf_batch + t.tf_release + t.tf_ack + t.tf_flow + t.tf_order))
    [ rn; rs; rr ]

let test_naive_ships_order_entries () =
  (* Weak-determinism order entries ride the wire only in naive mode;
     selective folds them into the batch stream. *)
  let locky =
    List.concat
      (List.init 10 (fun i ->
           [ Trace.Lock 0; work 2.0; Trace.Unlock 0; wr ~args:[ 1L; Int64.of_int i ] () ]))
  in
  let _, rn = bytes ~n:2 Cluster.Full_remote_lockstep locky in
  let _, rs = bytes ~n:2 Cluster.Selective locky in
  Alcotest.(check bool) "order entries recorded" true (rn.Cluster.order_entries > 0);
  Alcotest.(check bool) "naive order traffic" true Cluster.(rn.Cluster.traffic.tf_order > 0);
  Alcotest.(check int) "selective has no order stream" 0 Cluster.(rs.Cluster.traffic.tf_order);
  Alcotest.(check int) "replays equal either way" rn.Cluster.det_replays rs.Cluster.det_replays

let test_multithreaded_spawn_across_nodes () =
  let worker tag =
    [ work 20.0; Trace.Lock 0; work 5.0; Trace.Unlock 0; wr ~args:[ 1L; tag ] () ]
  in
  let mt = [ Trace.Spawn (worker 10L); Trace.Spawn (worker 20L) ] @ worker 0L in
  List.iter
    (fun ship ->
      let r = run ~config:(cfg ~nodes:2 ~ship ()) 2 mt in
      Alcotest.(check bool) (Cluster.mode_name ship ^ " finished") true (finished r);
      Alcotest.(check int) "three channels" 3 r.Cluster.channels;
      Alcotest.(check int) "three writes synced" 3 r.Cluster.synced_syscalls;
      Alcotest.(check int) "order replayed remotely" 3 r.Cluster.det_replays)
    modes

(* ------------------------------------------------------------------ *)
(* Verdict parity: local engine vs every ship mode *)

let alert r =
  match r.Cluster.outcome with `Aborted a -> Some a | `All_finished -> None

let test_divergence_verdict_mode_independent () =
  let leader = [ work 10.0; wr ~args:[ 1L; 42L ] () ] in
  let follower = [ work 10.0; wr ~args:[ 1L; 666L ] () ] in
  let local = Nxe.run_traces ~names:(names 2) [ leader; follower ] in
  let local_alert =
    match local.Nxe.outcome with `Aborted a -> a | `All_finished -> Alcotest.fail "local must abort"
  in
  let sigs =
    List.map
      (fun ship ->
        let r =
          Cluster.run_traces ~config:(cfg ~nodes:2 ~ship ()) ~names:(names 2)
            [ leader; follower ]
        in
        (match alert r with
         | Some a ->
           (* The alert record carries no timestamps: plain structural
              equality against the single-host engine's verdict. *)
           Alcotest.(check bool)
             (Cluster.mode_name ship ^ " alert = local alert")
             true (a = local_alert)
         | None -> Alcotest.failf "%s did not abort" (Cluster.mode_name ship));
        match r.Cluster.incident with
        | Some inc -> Cluster.incident_signature inc
        | None -> Alcotest.fail "abort must attach forensics")
      modes
  in
  match sigs with
  | [ a; b; c ] ->
    Alcotest.(check string) "naive = selective signature" a b;
    Alcotest.(check string) "selective = replicated signature" b c
  | _ -> assert false

let test_sequence_divergence_remote () =
  (* The extra follower syscall surfaces as the same premature/extra
     verdict whether the follower is local or across the wire. *)
  let leader = [ work 10.0; wr ~args:[ 1L; 5L ] () ] in
  let follower = [ work 10.0; wr ~args:[ 1L; 5L ] (); rd ~args:[ 3L; 9L ] () ] in
  List.iter
    (fun ship ->
      let r =
        Cluster.run_traces ~config:(cfg ~nodes:2 ~ship ()) ~names:(names 2)
          [ leader; follower ]
      in
      match alert r with
      | Some a ->
        Alcotest.(check int) "variant 1" 1 a.Nxe.al_variant;
        Alcotest.(check bool) "expected end-of-stream" true (a.Nxe.al_expected_sc = None);
        (match a.Nxe.al_got_sc with
         | Some got -> Alcotest.(check string) "extra syscall" "read" got.Sc.name
         | None -> Alcotest.fail "alert should carry the extra syscall")
      | None -> Alcotest.failf "%s did not abort" (Cluster.mode_name ship))
    modes

let test_abort_stops_remote_tail () =
  let tail = List.init 100 (fun _ -> work 100.0) in
  let leader = work 1.0 :: wr ~args:[ 1L; 1L ] () :: tail in
  let follower = work 1.0 :: wr ~args:[ 1L; 2L ] () :: tail in
  let r =
    Cluster.run_traces
      ~config:(cfg ~nodes:2 ~ship:Cluster.Selective_replicated ())
      ~names:(names 2) [ leader; follower ]
  in
  Alcotest.(check bool) "aborted" true (alert r <> None);
  Alcotest.(check bool) "stopped early" true (r.Cluster.total_time < 5000.0)

(* ------------------------------------------------------------------ *)
(* Faults across the wire *)

let coverage3 = [ [ "asan"; "ubsan" ]; [ "asan"; "msan" ]; [ "msan"; "lowfat" ] ]
let quarantine_policy =
  { Nxe.policy = Nxe.Quarantine; heartbeat_timeout = 400.0; restart_backoff = 50.0 }

let units = 12
let chaos_trace () =
  List.concat
    (List.init units (fun i -> [ work 5.0; rd ~args:[ 3L; Int64.of_int i ] () ]))

let stall_v1 = Faults.make [ { Faults.i_variant = 1; i_at = 4; i_kind = Faults.Stall } ]

let test_remote_stall_quarantine_parity () =
  (* v1 lives on node 1 under round-robin: it hangs mid-stream on the far
     side of the wire.  The survivors must complete N−1 with the SAME
     coverage-loss accounting the local engine produces for the same
     stall. *)
  let local =
    Nxe.run_traces
      ~config:{ Nxe.default_config with fault_policy = quarantine_policy }
      ~faults:stall_v1 ~coverage:coverage3 ~names:(names 3)
      (List.init 3 (fun _ -> chaos_trace ()))
  in
  Alcotest.(check bool) "local N-1 finished" true (local.Nxe.outcome = `All_finished);
  List.iter
    (fun ship ->
      let r =
        run
          ~config:(cfg ~nodes:2 ~ship ~fault_policy:quarantine_policy ())
          ~coverage:coverage3 ~faults:stall_v1 3 (chaos_trace ())
      in
      let tag = Cluster.mode_name ship in
      Alcotest.(check bool) (tag ^ ": survivors finished") true (finished r);
      (match List.nth r.Cluster.variant_status 1 with
       | Nxe.Quarantined { q_cause = Nxe.Missed_heartbeat silence; q_restarts; _ } ->
         Alcotest.(check bool) "silence >= timeout" true (silence >= 400.0);
         Alcotest.(check int) "no restarts" 0 q_restarts
       | _ -> Alcotest.fail (tag ^ ": expected Quarantined/Missed_heartbeat"));
      Alcotest.(check int) (tag ^ ": leader executed everything") units
        r.Cluster.executed_syscalls;
      Alcotest.(check (list string))
        (tag ^ ": coverage loss identical to local")
        local.Nxe.coverage_loss r.Cluster.coverage_loss;
      (match r.Cluster.fault_incidents with
       | [ inc ] ->
         Alcotest.(check bool) "fault isolation" true (inc.F.inc_mismatch = F.Fault_isolation);
         Alcotest.(check int) "victim blamed" 1 inc.F.inc_blamed
       | l -> Alcotest.failf "%s: expected one incident, got %d" tag (List.length l));
      Alcotest.(check bool) (tag ^ ": no abort incident") true (r.Cluster.incident = None))
    modes

let test_remote_quarantine_counted () =
  (* The engine's fault telemetry is the same on every placement: a
     remote quarantine lands on the sink's nxe.quarantines counter. *)
  let sink = Tel.create () in
  let config =
    { (cfg ~nodes:2 ~fault_policy:quarantine_policy ()) with Cluster.telemetry = Some sink }
  in
  let r = run ~config ~coverage:coverage3 ~faults:stall_v1 3 (chaos_trace ()) in
  Alcotest.(check bool) "survivors finished" true (finished r);
  Alcotest.(check (list int)) "v1 quarantined" [ 1 ]
    (List.concat
       (List.mapi
          (fun v s -> match s with Nxe.Quarantined _ -> [ v ] | _ -> [])
          r.Cluster.variant_status));
  Alcotest.(check int) "nxe.quarantines" 1
    (Tel.Counter.value (Tel.counter sink "nxe.quarantines"));
  Alcotest.(check int) "nxe.faults_injected" 1
    (Tel.Counter.value (Tel.counter sink "nxe.faults_injected"))

let test_corrupt_remote_aborts () =
  (* Argument corruption on a remote follower is a divergence, not a
     benign fault — even under Quarantine. *)
  let faults =
    Faults.make
      [ { Faults.i_variant = 1; i_at = 5; i_kind = Faults.Corrupt { c_arg = 1; c_delta = 7L } } ]
  in
  let r =
    run
      ~config:(cfg ~nodes:2 ~ship:Cluster.Selective ~fault_policy:quarantine_policy ())
      ~faults 3 (basic_trace ~units:10 ())
  in
  match alert r with
  | Some a ->
    Alcotest.(check int) "corrupted variant blamed" 1 a.Nxe.al_variant;
    Alcotest.(check bool) "forensics attached" true (r.Cluster.incident <> None)
  | None -> Alcotest.fail "corruption must abort"

let test_leader_fault_aborts_cluster () =
  let faults = Faults.make [ { Faults.i_variant = 0; i_at = 3; i_kind = Faults.Stall } ] in
  let r =
    run
      ~config:(cfg ~nodes:2 ~fault_policy:quarantine_policy ())
      ~faults 3 (chaos_trace ())
  in
  match alert r with
  | Some a -> Alcotest.(check int) "leader named" 0 a.Nxe.al_variant
  | None -> Alcotest.fail "leader fault must abort"

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let test_histograms_and_counters () =
  let sink = Tel.create () in
  let config = { (cfg ~nodes:2 ~ship:Cluster.Selective ()) with Cluster.telemetry = Some sink } in
  let r = run ~config 3 (read_heavy ()) in
  Alcotest.(check bool) "finished" true (finished r);
  Alcotest.(check bool) "lockstep wait hist" true
    (List.mem_assoc "lockstep_wait_us" r.Cluster.histograms);
  Alcotest.(check bool) "rtt hist" true (List.mem_assoc "net_rtt_us" r.Cluster.histograms);
  let rtt_samples =
    List.fold_left (fun a (_, c) -> a + c) 0 (List.assoc "net_rtt_us" r.Cluster.histograms)
  in
  Alcotest.(check bool) "rtt observed per lockstep ack" true (rtt_samples > 0);
  let text = Tel.metrics_to_text sink in
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "net bytes counter on sink" true (contains "net.bytes_sent");
  Alcotest.(check bool) "per-link counter on sink" true (contains "net.n0-n1.bytes_sent");
  Alcotest.(check bool) "link stats named" true
    (List.mem_assoc "n0-n1" r.Cluster.link_stats && List.mem_assoc "n1-n0" r.Cluster.link_stats)

(* ------------------------------------------------------------------ *)
(* Validation *)

let test_validation () =
  let invalid f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let t = basic_trace ~units:2 () in
  Alcotest.(check bool) "nodes >= 1" true
    (invalid (fun () -> run ~config:(cfg ~nodes:0 ()) 2 t));
  Alcotest.(check bool) "pinned wrong length" true
    (invalid (fun () -> run ~config:(cfg ~nodes:2 ~placement:(Cluster.Pinned [ 0 ]) ()) 2 t));
  Alcotest.(check bool) "pinned out of range" true
    (invalid (fun () -> run ~config:(cfg ~nodes:2 ~placement:(Cluster.Pinned [ 0; 5 ]) ()) 2 t));
  Alcotest.(check bool) "leader must be on node 0" true
    (invalid (fun () -> run ~config:(cfg ~nodes:2 ~placement:(Cluster.Pinned [ 1; 0 ]) ()) 2 t));
  Alcotest.(check bool) "restart_once unsupported" true
    (invalid (fun () ->
         run
           ~config:
             (cfg
                ~fault_policy:
                  { Nxe.policy = Nxe.Restart_once; heartbeat_timeout = 100.0; restart_backoff = 10.0 }
                ())
           2 t));
  Alcotest.(check bool) "fork rejected" true
    (invalid (fun () -> run ~config:(cfg ()) 2 [ Trace.Fork [ work 1.0 ]; wr () ]));
  Alcotest.(check bool) "ack_every bounded by ring" true
    (invalid (fun () ->
         run ~config:{ (cfg ()) with Cluster.ack_every = 100; ring_capacity = 8 } 2 t))

(* ------------------------------------------------------------------ *)
(* Property: observation equivalence of the ship modes *)

(* Spawn-free traces only: channel numbering is creation-ordered, so a
   multithreaded interleaving could legitimately differ between runs;
   single-channel traces make verdicts directly comparable. *)
let gen_trace_ops =
  let open QCheck.Gen in
  let leaf =
    frequency
      [
        (4, map (fun c -> `Work (float_of_int (1 + c))) (int_bound 30));
        (2, map (fun i -> `Read i) (int_bound 100));
        (2, map (fun i -> `Write i) (int_bound 100));
        (1, map (fun l -> `Locked l) (int_bound 2));
      ]
  in
  list_size (1 -- 20) leaf

let trace_of_ops ops =
  List.concat_map
    (function
      | `Work c -> [ work c ]
      | `Read i -> [ rd ~args:[ 3L; Int64.of_int i ] () ]
      | `Write i -> [ wr ~args:[ 1L; Int64.of_int i ] () ]
      | `Locked l ->
        [ Trace.Lock l; Trace.Work { func = "crit"; cost = 1.0 }; Trace.Unlock l ])
    ops
  @ [ wr ~args:[ 1L; 9999L ] () ]

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

let prop_ship_modes_observation_equivalent =
  QCheck.Test.make
    ~name:"cluster: naive, selective and replicated agree on the verdict" ~count:30
    QCheck.(
      quad (QCheck.make gen_trace_ops) (int_range 0 20) (int_range 2 3) bool)
    (fun (ops, k, nodes, clean) ->
      (* QCheck's shrinker can step outside int_range: clamp. *)
      let nodes = max 2 (min 3 nodes) in
      let base = trace_of_ops ops in
      let follower = if clean then base else mutate_kth_syscall ~k ~delta:500L base in
      (* k can exceed the syscall count, leaving the follower untouched. *)
      let mutated = follower <> base in
      let verdicts =
        List.map
          (fun ship ->
            (Cluster.run_traces ~config:(cfg ~nodes ~ship ()) ~names:(names 2)
               [ base; follower ]).Cluster.outcome)
          modes
      in
      match verdicts with
      | [ a; b; c ] -> a = b && b = c && (mutated = (a <> `All_finished))
      | _ -> false)

(* Every field a Cluster.report shares with an Nxe.report — floats
   compared exactly — plus the incident verdicts. *)
let shared ~outcome ~incident ~floats ~counts ~status ~coverage ~faults ~hists =
  ( outcome,
    (Option.map Cluster.incident_signature incident, List.map Cluster.incident_signature faults),
    floats,
    counts,
    (status, coverage, List.assoc "lockstep_wait_us" hists) )

let local_shared (r : Nxe.report) =
  shared ~outcome:r.outcome ~incident:r.incident
    ~floats:((r.total_time :: r.variant_finish) @ r.variant_cpu)
    ~counts:
      [
        r.synced_syscalls; r.executed_syscalls; r.lockstep_syscalls; r.order_list_length;
        r.det_replays; r.channels;
      ]
    ~status:r.variant_status ~coverage:r.coverage_loss ~faults:r.fault_incidents
    ~hists:r.histograms

let cluster_shared (r : Cluster.report) =
  shared ~outcome:r.outcome ~incident:r.incident
    ~floats:((r.total_time :: r.variant_finish) @ r.variant_cpu)
    ~counts:
      [
        r.synced_syscalls; r.executed_syscalls; r.lockstep_syscalls; r.order_entries;
        r.det_replays; r.channels;
      ]
    ~status:r.variant_status ~coverage:r.coverage_loss ~faults:r.fault_incidents
    ~hists:r.histograms

(* The local engine is the one-node placement: a 1-node cluster, and a
   2-node cluster with every variant pinned to node 0 (the multi-machine
   loop with an idle node), reproduce the local report in every ship
   mode — naive as strict lockstep, both selective modes as selective
   lockstep (the generated traces hold no process or socket syscalls). *)
let one_node_parity traces =
  let n = List.length traces in
  List.for_all
    (fun ship ->
      let mode =
        match ship with
        | Cluster.Full_remote_lockstep -> Nxe.Strict_lockstep
        | Selective | Selective_replicated -> Nxe.Selective_lockstep
      in
      let local =
        local_shared
          (Nxe.run_traces ~config:{ Nxe.default_config with mode } ~names:(names n) traces)
      in
      List.for_all
        (fun config -> cluster_shared (Cluster.run_traces ~config ~names:(names n) traces) = local)
        [
          cfg ~nodes:1 ~ship ();
          cfg ~nodes:2 ~ship ~placement:(Cluster.Pinned (List.init n (fun _ -> 0))) ();
        ])
    modes

let spawn_lock_parity =
  lazy
    (let worker tag =
       [ work 20.0; Trace.Lock 0; work 5.0; Trace.Unlock 0; wr ~args:[ 1L; tag ] () ]
     in
     let mt = [ Trace.Spawn (worker 10L); Trace.Spawn (worker 20L) ] @ worker 0L in
     one_node_parity [ mt; mt; mt ])

let prop_cluster_matches_local_engine =
  QCheck.Test.make ~name:"cluster: verdicts match the single-host engine" ~count:20
    QCheck.(triple (QCheck.make gen_trace_ops) (int_range 0 20) bool)
    (fun (ops, k, clean) ->
      let base = trace_of_ops ops in
      let follower = if clean then base else mutate_kth_syscall ~k ~delta:500L base in
      let local = (Nxe.run_traces ~names:(names 2) [ base; follower ]).Nxe.outcome in
      let remote =
        Cluster.run_traces
          ~config:(cfg ~nodes:2 ~ship:Cluster.Selective_replicated ())
          ~names:(names 2) [ base; follower ]
      in
      local = remote.Cluster.outcome
      && one_node_parity [ base; follower ]
      && Lazy.force spawn_lock_parity)

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let () =
  Alcotest.run "bunshin_cluster"
    [
      ( "clean",
        [
          Alcotest.test_case "all modes x nodes finish" `Quick test_clean_all_modes_all_nodes;
          Alcotest.test_case "single node uses no wire" `Quick test_single_node_no_wire;
          Alcotest.test_case "round-robin placement" `Quick test_round_robin_placement;
          Alcotest.test_case "pinned placement" `Quick test_pinned_placement;
          Alcotest.test_case "remote slower than local" `Quick test_remote_slower_than_local;
          Alcotest.test_case "bit-stable under a seed" `Quick test_determinism_same_seed;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "naive > selective > replicated" `Quick test_mode_traffic_ordering;
          Alcotest.test_case "order stream only in naive" `Quick test_naive_ships_order_entries;
          Alcotest.test_case "multithreaded across nodes" `Quick test_multithreaded_spawn_across_nodes;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "argument divergence mode-independent" `Quick
            test_divergence_verdict_mode_independent;
          Alcotest.test_case "sequence divergence remote" `Quick test_sequence_divergence_remote;
          Alcotest.test_case "abort stops remote tail" `Quick test_abort_stops_remote_tail;
        ] );
      ( "faults",
        [
          Alcotest.test_case "remote stall quarantine parity" `Quick
            test_remote_stall_quarantine_parity;
          Alcotest.test_case "remote quarantine counted" `Quick test_remote_quarantine_counted;
          Alcotest.test_case "remote corrupt aborts" `Quick test_corrupt_remote_aborts;
          Alcotest.test_case "leader fault aborts" `Quick test_leader_fault_aborts_cluster;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "histograms and counters" `Quick test_histograms_and_counters;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "properties",
        qcheck [ prop_ship_modes_observation_equivalent; prop_cluster_matches_local_engine ] );
    ]
