(* The four workloads.  Each is built by a [setup] that takes the seed and
   hands the program only generated inputs; it returns the measured unit
   ([rep]: one Serve.run, Nxe.run_traces or Cluster.run_traces) and an
   untimed [verify] pass that checks the outputs and computes the
   simulated metrics.  Every call into a layer goes through [Spans.span],
   which records only in the traced run. *)

open Bunshin

let k_setup = Spans.kind "setup"
let k_instrument = Spans.kind "sanitizer.instrument"
let k_partition = Spans.kind "partition.best"
let k_slice = Spans.kind "slicer.remove_checks"
let k_compile = Spans.kind "interp.compile"
let k_trace_gen = Spans.kind "workloads.trace_gen"
let k_source = Spans.kind "source.build"
let k_serve = Spans.kind "serve.run"
let k_request = Spans.kind "source.request"
let k_interp = Spans.kind "interp.run_compiled"
let k_bridge = Spans.kind "bridge.trace_of_run"
let k_nxe = Spans.kind "nxe.run_traces"
let k_cluster = Spans.kind "cluster.run_traces"
let k_replay = Spans.kind "nxe.replay"

(* Interpreter steps retired inside [k_interp] spans of the traced run. *)
let interp_steps = ref 0

(* [failed] and [digest] are lazy so that they are computed after the rep
   is timed. *)
type rep = { ops : int; failed : int Lazy.t; digest : string Lazy.t }

type verdict = {
  errors : string list;
  rep_digest : string;  (* must equal the digest of every measured rep *)
  digest : string;  (* every simulated output, incl. per-run report signatures *)
  syncs : int;  (* synchronized syscalls completed per measured rep *)
  sim : (string * float) list;
  counters : (string * float) list;  (* deterministic per-layer counters *)
  notes : string list;
}

type t = {
  measured : Spans.kind;  (* the span of one rep *)
  rep : unit -> rep;
  verify : unit -> verdict;
  replay : unit -> string Lazy.t option;
      (* serve only: re-run the last traced rep's NXE groups solo, timed as
         [k_nxe] spans under [k_replay]; returns the full digest, computed
         when forced so that hashing stays outside the spans *)
  setup_counters : (string * float) list;
}

let md5 s = Digest.to_hex (Digest.string s)
let i2f = float_of_int

(* Smallest bucket bound holding the [q] quantile of merged
   [(upper_bound, count)] histograms. *)
let hist_quantile q hists =
  let tbl = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (ub, c) ->
         Hashtbl.replace tbl ub (c + Option.value (Hashtbl.find_opt tbl ub) ~default:0)))
    hists;
  let buckets = List.sort compare (List.of_seq (Hashtbl.to_seq tbl)) in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 buckets in
  let need = q /. 100.0 *. i2f total in
  let rec go acc = function
    | [] -> 0.0
    | (ub, c) :: rest -> if i2f (acc + c) >= need then ub else go (acc + c) rest
  in
  if total = 0 then 0.0 else go 0 buckets

let hist name (hs : (string * (float * int) list) list) =
  Option.value (List.assoc_opt name hs) ~default:[]

(* Engine counters shared by every workload; [waits] are the runs'
   lockstep-wait histograms and [machines] their machine stats. *)
let engine_counters ~runs ~syncs ~lockstep ~waits ~(machines : Machine.stats list) =
  [
    ("nxe.runs", i2f runs);
    ("nxe.synced_syscalls", i2f syncs);
    ("nxe.lockstep_syscalls", i2f lockstep);
    ("nxe.lockstep_wait_p99_us", hist_quantile 99.0 waits);
    ( "machine.context_switches_per_sync",
      i2f (List.fold_left (fun a (st : Machine.stats) -> a + st.context_switches) 0 machines)
      /. i2f (max 1 syncs) );
    ( "machine.cache_pressure_peak",
      List.fold_left (fun a (st : Machine.stats) -> Float.max a st.cache_pressure_peak) 0.0 machines );
  ]

(* ------------------------------------------------------------------ *)
(* Serving: ir_serve and http_overload share the pool, its checks and
   its metrics; they differ in the source. *)

let serve_digest (r : Serve.report) =
  let b = Buffer.create 65536 in
  Printf.bprintf b "%d %d %d %d %h %h %h %h %h %h %h %h %h %d %d %d %d %d\n" r.Serve.sv_requests
    r.sv_completed r.sv_rejected r.sv_faulted r.sv_makespan r.sv_p50 r.sv_p95 r.sv_p99
    r.sv_p999 r.sv_live_p99 r.sv_breach_fraction r.sv_burn_rate r.sv_mean_service_us
    r.sv_groups_spawned r.sv_groups_retired r.sv_peak_groups r.sv_poll_wakeups
    r.sv_poll_events;
  Array.iter
    (function
      | Serve.Completed c ->
        Printf.bprintf b "C%h,%h,%h,%d;" c.rq_arrival c.rq_start c.rq_finish c.rq_group
      | Serve.Rejected j -> Printf.bprintf b "R%h;" j.rq_arrival
      | Serve.Faulted f ->
        Printf.bprintf b "F%h,%h,%h,%d;" f.rq_arrival f.rq_start f.rq_finish f.rq_group)
    r.sv_outcomes;
  md5 (Buffer.contents b)

let full_serve_digest rep_digest sigs = md5 (String.concat "\n" (rep_digest :: sigs))

(* Request conservation: completed + rejected + faulted = requests, the
   outcome counts agree with the report, and every admitted id has
   exactly one group report. *)
let conservation (r : Serve.report) =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let c = ref 0 and j = ref 0 and f = ref 0 in
  Array.iter
    (function Serve.Completed _ -> incr c | Serve.Rejected _ -> incr j | Serve.Faulted _ -> incr f)
    r.Serve.sv_outcomes;
  if Array.length r.sv_outcomes <> r.sv_requests then
    err "serve: %d outcomes for %d requests" (Array.length r.sv_outcomes) r.sv_requests;
  if r.sv_completed + r.sv_rejected + r.sv_faulted <> r.sv_requests then
    err "serve: completed %d + rejected %d + faulted %d <> requests %d" r.sv_completed
      r.sv_rejected r.sv_faulted r.sv_requests;
  if !c <> r.sv_completed || !j <> r.sv_rejected || !f <> r.sv_faulted then
    err "serve: outcome array (%d/%d/%d) disagrees with the report counts" !c !j !f;
  let seen = Array.make (max 0 r.sv_requests) 0 in
  List.iter
    (fun (id, _) ->
      if id < 0 || id >= r.sv_requests then err "serve: report for unknown request %d" id
      else seen.(id) <- seen.(id) + 1)
    r.sv_reports;
  Array.iteri
    (fun id n ->
      let admitted =
        match r.sv_outcomes.(id) with
        | Serve.Completed _ | Serve.Faulted _ -> true
        | Serve.Rejected _ -> false
      in
      if admitted && n <> 1 then err "serve: request %d resolved %d times" id n;
      if (not admitted) && n <> 0 then err "serve: rejected request %d was also run" id)
    seen;
  List.rev !errs

(* No group run may abort: the variants agree on every benign request, so
   an abort is a false divergence. *)
let no_aborts what outcomes =
  List.filter_map
    (fun (id, o) ->
      match o with
      | `All_finished -> None
      | `Aborted (a : Nxe.alert) ->
        Some
          (Printf.sprintf "%s %d aborted: divergence on channel %d at %d (v%d: %s <> %s)" what id
             a.al_channel a.al_position a.al_variant a.al_expected a.al_got))
    outcomes

let serving ~requests ~offered_rps ~arrival_seed ~(source : Serve.source)
    ~(baseline : req_id:int -> Trace.t) ~setup_errors ~setup_counters =
  let config = { Serve.default_config with Serve.seed = arrival_seed } in
  let recorded = Array.make requests [] in
  let source =
    {
      source with
      Serve.src_request =
        (fun ~req_id ->
          Spans.span k_request ~req:req_id (fun () ->
              let ts = source.Serve.src_request ~req_id in
              if !Spans.on then recorded.(req_id) <- ts;
              ts));
    }
  in
  let last = ref None in
  let rep () =
    let r = Spans.span k_serve (fun () -> Serve.run ~config source ~offered_rps ~requests) in
    last := Some r;
    { ops = requests; failed = lazy r.Serve.sv_faulted; digest = lazy (serve_digest r) }
  in
  let replay () =
    Option.map
      (fun (r : Serve.report) ->
        let sigs =
          Spans.span k_replay (fun () ->
              List.filter_map
                (fun id ->
                  match r.Serve.sv_outcomes.(id) with
                  | Serve.Rejected _ -> None
                  | Serve.Completed _ | Serve.Faulted _ ->
                    let rep =
                      Spans.span k_nxe ~req:id (fun () ->
                          Nxe.run_traces ~config:config.Serve.nxe ~names:source.Serve.src_names
                            recorded.(id))
                    in
                    Some (Nxe.report_signature rep))
                (List.init requests Fun.id))
        in
        lazy (full_serve_digest (serve_digest r) sigs))
      !last
  in
  let verify () =
    let config = { config with Serve.keep_reports = true } in
    let r = Serve.run ~config source ~offered_rps ~requests in
    let reports = List.sort (fun (a, _) (b, _) -> compare a b) r.Serve.sv_reports in
    let errors = ref (setup_errors @ conservation r) in
    let err s = errors := !errors @ [ s ] in
    errors := !errors @ no_aborts "request" (List.map (fun (id, p) -> (id, p.Nxe.outcome)) reports);
    (* Neutrality: a sample of pooled group reports must equal solo
       replays of the same requests bit for bit. *)
    let nrep = List.length reports in
    List.iteri
      (fun i (id, p) ->
        if nrep > 0 && i mod max 1 (nrep / 16) = 0 then
          if Nxe.report_signature p <> Nxe.report_signature (Serve.solo_report ~config source ~req_id:id)
          then err (Printf.sprintf "serve: pooled report of request %d differs from its solo replay" id))
      reports;
    let limit = config.Serve.slo.Telemetry.Slo.slo_limit_us in
    let lat = ref [] in
    Array.iter
      (function
        | Serve.Completed c -> lat := (c.rq_finish -. c.rq_arrival) :: !lat
        | Serve.Rejected _ | Serve.Faulted _ -> ())
      r.Serve.sv_outcomes;
    let beyond_p99 = List.length (List.filter (fun l -> l > r.sv_p99) !lat) in
    if beyond_p99 < 10 then
      err (Printf.sprintf "serve: only %d latency samples beyond p99 (need 10)" beyond_p99);
    let within = List.length (List.filter (fun l -> l <= limit) !lat) in
    (* Simulated overhead: each group run against the unprotected
       program's trace for the same request run alone. *)
    let nv = ref 0.0 and solo = ref 0.0 in
    List.iter
      (fun (id, p) ->
        nv := !nv +. p.Nxe.total_time;
        solo :=
          !solo
          +. (Nxe.run_traces ~config:config.Serve.nxe ~names:[ "solo" ] [ baseline ~req_id:id ])
               .Nxe.total_time)
      reports;
    let syncs = List.fold_left (fun a (_, p) -> a + p.Nxe.synced_syscalls) 0 reports in
    let rep_digest = serve_digest r in
    let sigs = List.map (fun (_, p) -> Nxe.report_signature p) reports in
    {
      errors = !errors;
      rep_digest;
      digest = full_serve_digest rep_digest sigs;
      syncs;
      sim =
        [
          ("sim_overhead_pct", 100.0 *. ((!nv /. !solo) -. 1.0));
          ("failed_pct", 100.0 *. i2f (r.sv_rejected + r.sv_faulted) /. i2f r.sv_requests);
          ("sim_p50_us", r.sv_p50);
          ("sim_p99_us", r.sv_p99);
          ("sim_goodput_rps", i2f within /. (r.sv_makespan /. 1e6));
        ];
      counters =
        [
          ("serve.batch_factor", i2f r.sv_poll_events /. i2f (max 1 r.sv_poll_wakeups));
          ("serve.groups_spawned", i2f r.sv_groups_spawned);
          ("serve.peak_groups", i2f r.sv_peak_groups);
          ("serve.mean_service_us", r.sv_mean_service_us);
          ( "nxe.avg_syscall_gap",
            List.fold_left (fun a (_, p) -> a +. p.Nxe.avg_syscall_gap) 0.0 reports
            /. i2f (max 1 nrep) );
          ("telemetry.live_p99_err_pct", 100.0 *. Float.abs (r.sv_live_p99 -. r.sv_p99) /. r.sv_p99);
        ]
        @ engine_counters ~runs:nrep ~syncs
            ~lockstep:(List.fold_left (fun a (_, p) -> a + p.Nxe.lockstep_syscalls) 0 reports)
            ~waits:(List.map (fun (_, p) -> hist "lockstep_wait_us" p.Nxe.histograms) reports)
            ~machines:(List.map (fun (_, p) -> p.Nxe.machine_stats) reports);
      notes =
        [
          Printf.sprintf
            "sim latency from scheduled arrival over %d completed requests (%d beyond p99): p50 %.2f us, p99 %.2f us; %d within the %.0f us limit over %.1f ms simulated"
            (List.length !lat) beyond_p99 r.sv_p50 r.sv_p99 within limit (r.sv_makespan /. 1e3);
          Printf.sprintf "requests %d: completed %d, rejected %d, faulted %d; overhead over %d solo runs"
            r.sv_requests r.sv_completed r.sv_rejected r.sv_faulted nrep;
        ];
    }
  in
  { measured = k_serve; rep; verify; replay; setup_counters }

(* ------------------------------------------------------------------ *)
(* ir_serve: an IR request handler, instrumented once with ASan+UBSan,
   its checks split across 3 variants by function, compiled once each. *)

type ir_variants = {
  base : Ir.modul;
  instrumented : Ir.modul;
  variants : Ir.modul list;
  max_share : float;
  removed : int;
}

(* The number of variants the checks are split across. *)
let n_variants = 3

let split_checks base =
  let instrumented =
    Spans.span k_instrument (fun () ->
        Instrument.apply_exn (Sanitizer.asan :: Sanitizer.ubsan_subs) base)
  in
  let items =
    List.filter_map
      (fun (f, c) -> if c > 0 then Some { Partition.label = f; weight = i2f c } else None)
      (Slicer.per_function_check_count instrumented)
  in
  let part = Spans.span k_partition (fun () -> Partition.best n_variants items) in
  let total = List.fold_left (fun a it -> a +. it.Partition.weight) 0.0 items in
  let variants =
    Array.to_list
      (Array.map
         (fun bin ->
           let keep = List.map (fun it -> it.Partition.label) bin in
           let drop =
             List.filter_map
               (fun it -> if List.mem it.Partition.label keep then None else Some it.Partition.label)
               items
           in
           Spans.span k_slice (fun () -> Slicer.remove_checks ~in_funcs:drop instrumented))
         part.Partition.bins)
  in
  {
    base;
    instrumented;
    variants;
    max_share = Array.fold_left Float.max 0.0 part.Partition.loads /. total;
    removed =
      List.fold_left (fun a v -> a + Slicer.removed_instruction_count instrumented v) 0 variants;
  }

(* Union coverage: every check site of the instrumented module is kept by
   exactly one variant, and no variant holds a site the instrumented
   module lacks. *)
let coverage v =
  let sites m = List.sort_uniq compare (Slicer.discover m) in
  let all = sites v.instrumented in
  let per = List.map sites v.variants in
  List.filter_map
    (fun (s : Slicer.sink) ->
      let holders = List.length (List.filter (List.mem s) per) in
      if holders = 1 then None
      else
        Some
          (Printf.sprintf "coverage: check %s/%s (%s) is kept by %d variants" s.sk_func s.sk_block
             s.sk_handler holders))
    all
  @ List.concat_map
      (List.filter_map (fun (s : Slicer.sink) ->
           if List.mem s all then None
           else Some (Printf.sprintf "coverage: variant holds unknown check %s/%s" s.sk_func s.sk_block)))
      per

(* 450k rps is about 1x the knee: 8 groups over a 17.6 us mean solo
   service time.  2,000 requests leave 20 latency samples beyond p99. *)
let ir_serve_requests = 2000
let ir_serve_rps = 450_000.0

let ir_source ~inputs (compiled : Precompile.t list) =
  {
    Serve.src_names = List.mapi (fun i _ -> Printf.sprintf "ir-v%d" i) compiled;
    src_request =
      (fun ~req_id ->
        List.map
          (fun pm ->
            let run =
              Spans.span k_interp ~req:req_id (fun () ->
                  let r = Interp.run_compiled pm ~entry:"main" ~args:[ inputs.(req_id) ] in
                  if !Spans.on then interp_steps := !interp_steps + r.Interp.steps;
                  r)
            in
            Spans.span k_bridge ~req:req_id (fun () -> Bridge.trace_of_run run))
          compiled);
  }

let ir_serve ~seed =
  let rng = Rng.create seed in
  let arrival_seed = Rng.int rng 1_000_000_000 in
  let inputs = Array.init ir_serve_requests (fun _ -> Int64.of_int (Rng.int rng (1 lsl 30))) in
  let v = split_checks (Ir_parser.parse_exn Handler.source) in
  let compiled = List.map (fun m -> Spans.span k_compile (fun () -> Interp.compile m)) v.variants in
  let source = Spans.span k_source (fun () -> ir_source ~inputs compiled) in
  (* the uninstrumented handler, for the overhead baseline only *)
  let base = lazy (Interp.compile v.base) in
  serving ~requests:ir_serve_requests ~offered_rps:ir_serve_rps ~arrival_seed ~source
    ~baseline:(fun ~req_id ->
      Bridge.trace_of_run
        (Interp.run_compiled (Lazy.force base) ~entry:"main" ~args:[ inputs.(req_id) ]))
    ~setup_errors:(coverage v)
    ~setup_counters:
      [
        ("sanitizer.checks_inserted", i2f (Instrument.inserted_check_count v.base v.instrumented));
        ("partition.max_check_share", v.max_share);
        ("slicer.instrs_removed", i2f v.removed);
      ]

(* ------------------------------------------------------------------ *)
(* http_overload: the jittered lighttpd trace model, traces generated in
   set-up, offered at about 4x the pool's knee. *)

(* 1.4M rps is about 4x the knee: 8 groups over a 23.3 us mean solo
   service time. *)
let http_requests = 20000
let http_rps = 1_400_000.0

let http_overload ~seed =
  let rng = Rng.create seed in
  let arrival_seed = Rng.int rng 1_000_000_000 in
  let jitter_seed = Rng.int rng 1_000_000_000 in
  let model =
    Serve.jittered ~jitter:0.3 ~seed:jitter_seed
      (Serve.server_source ~n:3 Server.Lighttpd ~file_kb:1 ~connections:16)
  in
  let traces =
    Spans.span k_trace_gen (fun () ->
        Array.init http_requests (fun req_id -> model.Serve.src_request ~req_id))
  in
  let source =
    Spans.span k_source (fun () ->
        { model with Serve.src_request = (fun ~req_id -> traces.(req_id)) })
  in
  serving ~requests:http_requests ~offered_rps:http_rps ~arrival_seed ~source
    ~baseline:(fun ~req_id -> List.hd traces.(req_id))
    ~setup_errors:[] ~setup_counters:[]

(* ------------------------------------------------------------------ *)
(* dense_lockstep / cluster_repl: one long syscall-dense bzip2 trace run
   by 3 identical variants, locally or on 3 nodes. *)

let dense_units = 100_000

let dense_trace ~seed =
  let funcs =
    List.map (fun f -> (f.Program.fn_name, 1.0)) (Spec.find "bzip2").Bench.prog.Program.funcs
  in
  Spans.span k_trace_gen (fun () ->
      Bench.cpu_trace ~funcs ~units:dense_units ~unit_cost:2.0 ~syscall_every:2 (Rng.create seed))

let names = [ "v0"; "v1"; "v2" ]

let cluster_signature (r : Cluster.report) =
  let b = Buffer.create 256 in
  (match r.Cluster.outcome with
   | `All_finished -> Buffer.add_string b "finished"
   | `Aborted a -> Printf.bprintf b "aborted(ch%d@%d v%d)" a.Nxe.al_channel a.al_position a.al_variant);
  Printf.bprintf b " t=%h syn=%d exe=%d lock=%d rc=%d repl=%d ord=%d rep=%d ch=%d bytes=%d msgs=%d"
    r.total_time r.synced_syscalls r.executed_syscalls r.lockstep_syscalls r.remote_checked
    r.replicated_results r.order_entries r.det_replays r.channels r.bytes_on_wire r.msgs_on_wire;
  let t = r.traffic in
  Printf.bprintf b " tf=%d/%d/%d/%d/%d/%d" t.tf_ship t.tf_batch t.tf_release t.tf_ack t.tf_flow
    t.tf_order;
  List.iter (fun f -> Printf.bprintf b " f%h" f) r.variant_finish;
  List.iter (fun f -> Printf.bprintf b " c%h" f) r.variant_cpu;
  List.iter
    (fun (name, (s : Net.stats)) -> Printf.bprintf b " %s:%d/%d/%d" name s.s_msgs s.s_bytes s.s_retransmits)
    r.link_stats;
  List.iter
    (fun (name, hs) ->
      Printf.bprintf b " %s:" name;
      List.iter (fun (ub, c) -> Printf.bprintf b "%h*%d," ub c) hs)
    r.histograms;
  Buffer.contents b

(* A lockstep run, local or distributed, reduced to what the checks and
   the metrics need. *)
type lockstep_run = {
  outcome : [ `All_finished | `Aborted of Nxe.alert ];
  signature : string;
  total_time : float;
  syncs : int;
  sim : (string * float) list;
  counters : (string * float) list;
  notes : string list;
}

let of_nxe (r : Nxe.report) =
  let syncs = r.synced_syscalls in
  {
    outcome = r.outcome;
    signature = Nxe.report_signature r;
    total_time = r.total_time;
    syncs;
    sim = [ ("failed_pct", 0.0) ];
    counters =
      ("nxe.avg_syscall_gap", r.avg_syscall_gap)
      :: engine_counters ~runs:1 ~syncs ~lockstep:r.lockstep_syscalls
           ~waits:[ hist "lockstep_wait_us" r.histograms ] ~machines:[ r.machine_stats ];
    notes = [];
  }

(* On the cluster the nxe.* counters are the cluster engine's own: it
   runs the same lockstep protocol over the network. *)
let of_cluster (r : Cluster.report) =
  let syncs = r.synced_syscalls in
  {
    outcome = r.outcome;
    signature = cluster_signature r;
    total_time = r.total_time;
    syncs;
    sim = [ ("failed_pct", 0.0); ("wire_bytes_per_sync", i2f r.bytes_on_wire /. i2f syncs) ];
    counters =
      engine_counters ~runs:1 ~syncs ~lockstep:r.lockstep_syscalls
        ~waits:[ hist "lockstep_wait_us" r.histograms ] ~machines:r.node_stats
      @ [
          ("cluster.remote_checked", i2f r.remote_checked);
          ("cluster.replicated_results", i2f r.replicated_results);
          ("net.msgs_per_sync", i2f r.msgs_on_wire /. i2f syncs);
          ( "net.retransmits",
            i2f (List.fold_left (fun a (_, (st : Net.stats)) -> a + st.s_retransmits) 0 r.link_stats) );
          ("net.rtt_p99_us", hist_quantile 99.0 [ hist "net_rtt_us" r.histograms ]);
        ];
    notes = [ Printf.sprintf "%d bytes in %d messages on the wire" r.bytes_on_wire r.msgs_on_wire ];
  }

let lockstep ~seed ~nodes =
  let trace = dense_trace ~seed:(Rng.int (Rng.create seed) 1_000_000_000) in
  let traces = [ trace; trace; trace ] in
  let config = { Cluster.default_config with Cluster.nodes; ship = Cluster.Selective_replicated } in
  let run () =
    if nodes = 1 then
      let r = Spans.span k_nxe (fun () -> Nxe.run_traces ~config:Nxe.default_config ~names traces) in
      fun () -> of_nxe r
    else
      let r = Spans.span k_cluster (fun () -> Cluster.run_traces ~config ~names traces) in
      fun () -> of_cluster r
  in
  let last = ref None in
  let rep () =
    let result = run () in
    last := Some result;
    let r = lazy (result ()) in
    {
      ops = 1;
      failed = lazy (if (Lazy.force r).outcome = `All_finished then 0 else 1);
      digest = lazy (md5 (Lazy.force r).signature);
    }
  in
  let verify () =
    let r = (match !last with Some f -> f | None -> run ()) () in
    let s = Nxe.run_traces ~config:Nxe.default_config ~names:[ "solo" ] [ trace ] in
    {
      errors = no_aborts "run" [ (0, r.outcome); (1, s.Nxe.outcome) ];
      rep_digest = md5 r.signature;
      digest = md5 (r.signature ^ "\n" ^ Nxe.report_signature s);
      syncs = r.syncs;
      sim = ("sim_overhead_pct", 100.0 *. ((r.total_time /. s.Nxe.total_time) -. 1.0)) :: r.sim;
      counters = r.counters;
      notes =
        Printf.sprintf "%d synchronized syscalls; %.0f us simulated vs %.0f us solo" r.syncs
          r.total_time s.Nxe.total_time
        :: r.notes;
    }
  in
  {
    measured = (if nodes = 1 then k_nxe else k_cluster);
    rep;
    verify;
    replay = (fun () -> None);
    setup_counters = [];
  }

let names_all = [ "ir_serve"; "http_overload"; "dense_lockstep"; "cluster_repl" ]

(* Set-ups per run for the [setup_s] median: enough that the median of a
   sub-millisecond set-up is steady, few enough for the run budget. *)
let setup_repeats = function "ir_serve" -> 101 | _ -> 31

let setup name ~seed =
  Spans.span k_setup (fun () ->
      match name with
      | "ir_serve" -> ir_serve ~seed
      | "http_overload" -> http_overload ~seed
      | "dense_lockstep" -> lockstep ~seed ~nodes:1
      | "cluster_repl" -> lockstep ~seed ~nodes:3
      | _ -> invalid_arg ("unknown workload " ^ name))
