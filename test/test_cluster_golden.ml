(* Golden-report regression tests for the distributed NXE.

   Every field of [Cluster.report] — outcome, forensics, counts, per-kind
   wire traffic, per-link stats, variant status, histograms, per-node
   machine stats — is rendered canonically (floats in hex) and compared
   against a committed snapshot in test/golden/.  The corpus covers the
   three ship modes on clean, divergent and faulted runs, so any change
   that perturbs the distributed schedule — message timing, batching,
   flow control — fails here, not just verdict changes.

   Each scenario also runs with a telemetry sink attached (documented as
   pure observation): both reports must render byte-identically.

   Regenerate with (harness in golden.ml):
     BUNSHIN_REGEN_GOLDEN=test/golden dune exec test/test_cluster_golden.exe *)

module Sc = Bunshin_syscall.Syscall
module Trace = Bunshin_program.Trace
module Nxe = Bunshin_nxe.Nxe
module Cluster = Bunshin_cluster.Cluster
module Net = Bunshin_net.Net
module Faults = Bunshin_faults.Faults
module Tel = Bunshin_telemetry.Telemetry

(* ------------------------------------------------------------------ *)
(* Canonical report rendering *)

let render (r : Cluster.report) =
  let b = Buffer.create 4096 in
  let line fmt = Golden.line b fmt in
  Golden.head b ~outcome:r.outcome ~incident:r.incident ~total_time:r.total_time
    ~finish:r.variant_finish ~cpu:r.variant_cpu ~synced:r.synced_syscalls
    ~executed:r.executed_syscalls ~lockstep:r.lockstep_syscalls;
  line "remote_checked: %d" r.remote_checked;
  line "replicated_results: %d" r.replicated_results;
  line "order_entries: %d" r.order_entries;
  line "det_replays: %d" r.det_replays;
  line "channels: %d" r.channels;
  line "placement: %s" (String.concat " " (List.map string_of_int r.placement));
  Golden.verdicts b ~status:r.variant_status ~coverage:r.coverage_loss ~faults:r.fault_incidents;
  line "bytes_on_wire: %d" r.bytes_on_wire;
  line "msgs_on_wire: %d" r.msgs_on_wire;
  let t = r.traffic in
  line "traffic: ship=%d batch=%d release=%d ack=%d flow=%d order=%d" t.tf_ship t.tf_batch
    t.tf_release t.tf_ack t.tf_flow t.tf_order;
  List.iter
    (fun (name, (st : Net.stats)) ->
      line "link %s: msgs=%d bytes=%d retransmits=%d" name st.s_msgs st.s_bytes st.s_retransmits)
    r.link_stats;
  Golden.hists b r.histograms;
  List.iteri (fun i st -> Golden.machine b (Printf.sprintf "node[%d]" i) st) r.node_stats;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Scenario corpus *)

let work c = Trace.Work { func = "f"; cost = c }
let wr args = Trace.Sys (Sc.write ~args ())
let rd args = Trace.Sys (Sc.read ~args ())
let names n = List.init n (fun i -> Printf.sprintf "v%d" i)

(* Read-heavy mix with periodic writes: exercises batching, lockstep and
   replication in one stream. *)
let mixed_trace () =
  List.concat
    (List.init 12 (fun i ->
         [ work 8.0; rd [ 3L; Int64.of_int i ] ]
         @ (if i mod 4 = 0 then [ wr [ 1L; Int64.of_int i ] ] else [])))

(* Locks under spawned threads: weak-determinism order crosses the wire. *)
let mt_trace () =
  let worker tag =
    [ work 12.0; Trace.Lock 0; work 2.0; Trace.Unlock 0; wr [ 1L; tag ] ]
  in
  [ Trace.Spawn (worker 10L) ] @ worker 0L

let diverge_at ~pos ~tag n =
  List.init n (fun v ->
      List.concat
        (List.init 8 (fun i ->
             let x = if v = n - 1 && i = pos then tag else Int64.of_int i in
             [ work 4.0; wr [ 1L; x ] ])))

let quarantine_policy =
  { Nxe.policy = Nxe.Quarantine; heartbeat_timeout = 400.0; restart_backoff = 50.0 }

let cfg ?(nodes = 2) ?(ship = Cluster.Selective_replicated) ?fault_policy telemetry =
  let c = { Cluster.default_config with nodes; ship; telemetry } in
  match fault_policy with Some fp -> { c with Cluster.fault_policy = fp } | None -> c

type scenario = {
  s_name : string;
  s_run : telemetry:Tel.sink option -> Cluster.report;
}

let sc name run = { s_name = name; s_run = run }

let scenarios =
  [
    sc "cluster_naive_clean" (fun ~telemetry ->
        Cluster.run_traces
          ~config:(cfg ~ship:Cluster.Full_remote_lockstep telemetry)
          ~names:(names 3)
          (List.init 3 (fun _ -> mixed_trace ())));
    sc "cluster_selective_clean" (fun ~telemetry ->
        Cluster.run_traces
          ~config:(cfg ~ship:Cluster.Selective telemetry)
          ~names:(names 3)
          (List.init 3 (fun _ -> mixed_trace ())));
    sc "cluster_replicated_clean" (fun ~telemetry ->
        Cluster.run_traces
          ~config:(cfg ~nodes:3 ~ship:Cluster.Selective_replicated telemetry)
          ~names:(names 3)
          (List.init 3 (fun _ -> mixed_trace ())));
    sc "cluster_mt_order" (fun ~telemetry ->
        Cluster.run_traces
          ~config:(cfg ~ship:Cluster.Full_remote_lockstep telemetry)
          ~names:(names 2)
          (List.init 2 (fun _ -> mt_trace ())));
    sc "cluster_diverge_arg" (fun ~telemetry ->
        Cluster.run_traces
          ~config:(cfg ~ship:Cluster.Selective telemetry)
          ~names:(names 3) (diverge_at ~pos:5 ~tag:777L 3));
    sc "cluster_remote_quarantine" (fun ~telemetry ->
        (* The stalled follower sits on node 1: N−1 completion with the
           same coverage-loss accounting the local engine produces. *)
        let faults =
          Faults.make [ { Faults.i_variant = 1; i_at = 2; i_kind = Faults.Stall } ]
        in
        Cluster.run_traces
          ~config:(cfg ~fault_policy:quarantine_policy telemetry)
          ~faults
          ~coverage:[ [ "asan"; "msan" ]; [ "msan" ]; [ "asan" ] ]
          ~names:(names 3) (diverge_at ~pos:(-1) ~tag:0L 3));
  ]

(* ------------------------------------------------------------------ *)
(* Harness *)

let () =
  Golden.check
    (List.map
       (fun s ->
         ( s.s_name,
           render (s.s_run ~telemetry:None),
           [ ("telemetry", render (s.s_run ~telemetry:(Some (Tel.create ())))) ] ))
       scenarios)
