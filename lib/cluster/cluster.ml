module M = Bunshin_machine.Machine
module Tel = Bunshin_telemetry.Telemetry
module F = Bunshin_forensics.Forensics
module Faults = Bunshin_faults.Faults
module Nxe = Bunshin_nxe.Nxe
module Net = Bunshin_net.Net
module Tx = Bunshin_trace_ctx.Trace_ctx

type ship_mode = Nxe.ship_mode = Full_remote_lockstep | Selective | Selective_replicated

type placement = Nxe.placement = Round_robin | Pinned of int list

type config = {
  nodes : int;
  placement : placement;
  ship : ship_mode;
  link : Net.params;
  net_seed : int;
  batch_slots : int;
  ack_every : int;
  ring_capacity : int;
  checkin_cost : float;
  fetch_cost : float;
  synccall_cost : float;
  resched_cost : float;
  msg_cost : float;
  weak_determinism : bool;
  recorder_depth : int;
  telemetry : Tel.sink option;
  tracer : Tx.t option;
  fault_policy : Nxe.fault_policy;
}

(* The engine's own defaults, plus the network half. *)
let default_config =
  let e = Nxe.default_config in
  {
    nodes = 2;
    placement = Round_robin;
    ship = Selective_replicated;
    link = Net.default_params;
    net_seed = 0;
    batch_slots = 16;
    ack_every = 16;
    ring_capacity = e.ring_capacity;
    checkin_cost = e.checkin_cost;
    fetch_cost = e.fetch_cost;
    synccall_cost = e.synccall_cost;
    resched_cost = e.resched_cost;
    msg_cost = 0.5;
    weak_determinism = e.weak_determinism;
    recorder_depth = e.recorder_depth;
    telemetry = None;
    tracer = None;
    fault_policy = e.fault_policy;
  }

type traffic = Nxe.traffic = {
  tf_ship : int;
  tf_batch : int;
  tf_release : int;
  tf_ack : int;
  tf_flow : int;
  tf_order : int;
}

type report = {
  outcome : [ `All_finished | `Aborted of Nxe.alert ];
  incident : F.incident option;
  total_time : float;
  variant_finish : float list;
  variant_cpu : float list;
  synced_syscalls : int;
  executed_syscalls : int;
  lockstep_syscalls : int;
  remote_checked : int;
  replicated_results : int;
  order_entries : int;
  det_replays : int;
  channels : int;
  placement : int list;
  variant_status : Nxe.variant_status list;
  coverage_loss : string list;
  fault_incidents : F.incident list;
  bytes_on_wire : int;
  msgs_on_wire : int;
  traffic : traffic;
  link_stats : (string * Net.stats) list;
  histograms : (string * (float * int) list) list;
  node_stats : M.stats list;
}

let mode_name = function
  | Full_remote_lockstep -> "naive-full-lockstep"
  | Selective -> "selective"
  | Selective_replicated -> "selective+replication"

(* The cluster is the engine placed over several nodes: split the config
   into the engine's half and the network's half, run, and project. *)
let run_traces ?(config = default_config) ?machine_config ?working_sets ?sensitivities
    ?(faults = Faults.none) ?coverage ~names traces =
  let engine =
    {
      Nxe.default_config with
      Nxe.mode =
        (match config.ship with
         | Full_remote_lockstep -> Nxe.Strict_lockstep
         | Selective | Selective_replicated -> Nxe.Selective_lockstep);
      ring_capacity = config.ring_capacity;
      checkin_cost = config.checkin_cost;
      fetch_cost = config.fetch_cost;
      synccall_cost = config.synccall_cost;
      resched_cost = config.resched_cost;
      weak_determinism = config.weak_determinism;
      recorder_depth = config.recorder_depth;
      telemetry = config.telemetry;
      fault_policy = config.fault_policy;
      tracer = config.tracer;
    }
  in
  let wire =
    {
      Nxe.nodes = config.nodes;
      placement = config.placement;
      ship = config.ship;
      link = config.link;
      net_seed = config.net_seed;
      batch_slots = config.batch_slots;
      ack_every = config.ack_every;
      msg_cost = config.msg_cost;
    }
  in
  let (r : Nxe.report), (w : Nxe.wire_report) =
    Nxe.run_placed ~config:engine ~wire ?machine_config ?working_sets ?sensitivities ~faults
      ?coverage ~names traces
  in
  let totals = Net.totals w.net in
  {
    outcome = r.outcome;
    incident = r.incident;
    total_time = r.total_time;
    variant_finish = r.variant_finish;
    variant_cpu = r.variant_cpu;
    synced_syscalls = r.synced_syscalls;
    executed_syscalls = r.executed_syscalls;
    lockstep_syscalls = r.lockstep_syscalls;
    remote_checked = w.remote_checked;
    replicated_results = w.replicated_results;
    order_entries = r.order_list_length;
    det_replays = r.det_replays;
    channels = r.channels;
    placement = w.placed;
    variant_status = r.variant_status;
    coverage_loss = r.coverage_loss;
    fault_incidents = r.fault_incidents;
    bytes_on_wire = totals.Net.s_bytes;
    msgs_on_wire = totals.Net.s_msgs;
    traffic = w.traffic;
    link_stats = List.map (fun l -> (Net.link_name l, Net.link_stats l)) (Net.links w.net);
    histograms =
      [
        ("lockstep_wait_us", List.assoc "lockstep_wait_us" r.histograms);
        ("net_rtt_us", Tel.Hist.dump (Net.rtt_hist w.net));
      ];
    node_stats = w.node_stats;
  }

(* ------------------------------------------------------------------ *)
(* Verdict signature: everything about an incident except wall times. *)

let incident_signature (inc : F.incident) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "chan=%d pos=%d blamed=%d" inc.F.inc_channel inc.F.inc_position
       inc.F.inc_blamed);
  (match inc.F.inc_basis with
   | F.Majority k -> Buffer.add_string b (Printf.sprintf " basis=majority:%d" k)
   | F.Tie -> Buffer.add_string b " basis=tie"
   | F.Tie_broken_by_detection -> Buffer.add_string b " basis=tie-detect");
  Buffer.add_string b
    (match inc.F.inc_mismatch with
     | F.Argument_mismatch -> " class=argument"
     | F.Sequence_mismatch -> " class=sequence"
     | F.Premature_exit -> " class=premature-exit"
     | F.Fault_isolation -> " class=fault-isolation");
  Buffer.add_string b
    (Printf.sprintf " expected=%S got=%S" inc.F.inc_expected inc.F.inc_got);
  let rec_str (r : F.syscall_rec) =
    Printf.sprintf "%d:%s(%s)" r.F.r_pos r.F.r_name
      (String.concat "," (List.map Int64.to_string r.F.r_args))
  in
  Array.iteri
    (fun v vote ->
      Buffer.add_string b
        (match vote with
         | F.Issued r -> Printf.sprintf " v%d=issued:%s" v (rec_str r)
         | F.Exited -> Printf.sprintf " v%d=exited" v
         | F.Pending -> Printf.sprintf " v%d=pending" v))
    inc.F.inc_votes;
  Array.iteri
    (fun v tape ->
      Buffer.add_string b
        (Printf.sprintf " tape%d=[%s]" v (String.concat ";" (List.map rec_str tape))))
    inc.F.inc_tapes;
  (match inc.F.inc_check_site with
   | None -> ()
   | Some cs ->
     Buffer.add_string b
       (Printf.sprintf " site=%s/%s/%s" cs.F.cs_pass cs.F.cs_func cs.F.cs_block));
  Buffer.contents b
