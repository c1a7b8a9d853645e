(* End-to-end benchmark: entry point.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --selftest

   --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
   prints the per-layer metrics of a traced run.  The last line of
   standard output is one JSON object.  A failed output check prints
   "correct": false and exits 1; bad arguments exit 2. *)

open Bunshin
module W = Workloads

let k_workload = Spans.kind "workload"

let ratio a b = if b = 0.0 then 0.0 else a /. b
let i2f = float_of_int

let timed f =
  let t0 = Spans.now () in
  let v = f () in
  (v, i2f (Spans.now () - t0) /. 1e9)

(* Set-up is timed [W.setup_repeats] times, each from a collected heap
   and scaled to reference host speed by the kernel timed around it, and
   reported as the median; the last instance is the one measured. *)
let timed_setups name ~seed =
  let rec go times =
    let (inst, dt), factor = Calib.scaled (fun () -> timed (fun () -> W.setup name ~seed)) in
    let times = (dt *. factor) :: times in
    if List.length times < W.setup_repeats name then go times else (inst, Stats.median times)
  in
  go []

(* One measured rep, started from a collected heap so that no rep pays
   for garbage left by the previous one: the rep, its host time, that
   time scaled to reference speed, and the words it allocated in the
   major heap, directly or by promotion. *)
type sample = { rep : W.rep; host_s : float; scaled_s : float; major_w : float; promoted_w : float }

let timed_rep (inst : W.t) =
  let (rep, host_s, major_w, promoted_w), factor =
    Calib.scaled (fun () ->
        let q0 = Gc.quick_stat () in
        let rep, host_s = timed inst.W.rep in
        let q1 = Gc.quick_stat () in
        (rep, host_s, q1.Gc.major_words -. q0.Gc.major_words, q1.promoted_words -. q0.promoted_words))
  in
  { rep; host_s; scaled_s = host_s *. factor; major_w; promoted_w }

let finish ~errors ~attempted ~failed metrics =
  let errors =
    errors
    @ List.filter_map
        (fun (n, _, v) -> if Float.is_finite v then None else Some ("metric " ^ n ^ " is not finite"))
        metrics
  in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) errors;
  let correct = errors = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name
              (if Float.is_finite v then v else 0.0)
              unit)
          metrics));
  exit (if correct then 0 else 1)

(* Every rep of a run must reproduce the verified simulated digest. *)
let rep_checks (v : W.verdict) (reps : W.rep list) =
  List.concat
    (List.mapi
       (fun i (r : W.rep) ->
         let digest = Lazy.force r.digest and failed = Lazy.force r.failed in
         (if digest <> v.W.rep_digest then
            [ Printf.sprintf "rep %d: simulated digest %s differs from the verified %s" i digest
                v.rep_digest ]
          else [])
         @ if failed > 0 then [ Printf.sprintf "rep %d: %d operations failed" i failed ] else [])
       reps)

let counts (reps : W.rep list) =
  ( List.fold_left (fun a (r : W.rep) -> a + r.ops) 0 reps,
    List.fold_left (fun a (r : W.rep) -> a + Lazy.force r.failed) 0 reps )

let print_verdict name ~seed (v : W.verdict) =
  Printf.printf "workload %s seed %d\n" name seed;
  List.iter (fun n -> Printf.printf "  %s\n" n) v.W.notes;
  List.iter (fun (n, x) -> Printf.printf "  %-24s %.6g\n" n x) v.sim;
  Printf.printf "  simulated digest %s\n" v.digest

let run_untraced name ~seed ~seconds =
  let inst, setup_s = timed_setups name ~seed in
  let t_end = Spans.now () + int_of_float (seconds *. 1e9) in
  (* The heap peak: the process's top heap after set-up and the first
     rep.  Later reps start from the same collected heap and repeat the
     same allocations, so they cannot raise it.  The top after set-up is
     printed next to it, to show which phase set it. *)
  let mb words = words *. i2f (Sys.word_size / 8) /. 1e6 in
  let setup_top = i2f (Gc.quick_stat ()).Gc.top_heap_words in
  let first = timed_rep inst in
  let heap_mb = mb (i2f (Gc.quick_stat ()).Gc.top_heap_words) in
  let rec go acc =
    if List.length acc >= 3 && Spans.now () >= t_end then List.rev acc
    else go (timed_rep inst :: acc)
  in
  let samples = go [ first ] in
  let v = inst.W.verify () in
  print_verdict name ~seed v;
  let host = List.map (fun s -> s.host_s) samples in
  let scaled = List.map (fun s -> s.scaled_s) samples in
  Printf.printf "  host: %d reps of %d synchronized syscalls; median %.4f s (%.0f syncs/s), best %.4f s\n"
    (List.length samples) v.syncs (Stats.median host) (i2f v.syncs /. Stats.median host)
    (List.fold_left Float.min infinity host);
  Printf.printf "  rep times (s):%s\n" (String.concat "" (List.map (Printf.sprintf " %.4f") host));
  Printf.printf "  at reference speed (s):%s\n"
    (String.concat "" (List.map (Printf.sprintf " %.4f") scaled));
  Printf.printf
    "  top heap %.2f MB after set-up, %.2f MB after the first rep; the rep allocated %.2f MB in the major heap (%.2f MB of it promoted)\n"
    (mb setup_top) heap_mb (mb first.major_w) (mb first.promoted_w);
  let reps = List.map (fun s -> s.rep) samples in
  let attempted, failed = counts reps in
  finish ~errors:(v.errors @ rep_checks v reps) ~attempted ~failed
    [
      ("setup_s", "s", setup_s);
      ("host_syncs_per_s", "1/s", Stats.median (List.map (fun t -> i2f v.syncs /. t) scaled));
      ("peak_heap_mb", "MB", heap_mb);
      ("sim_overhead_pct", "%", List.assoc "sim_overhead_pct" v.sim);
    ]

(* Every per-layer metric, in BENCHMARK.json order; a layer a workload
   does not exercise reports 0. *)
let per_layer_units =
  [
    ("sanitizer.instrument_s", "s"); ("sanitizer.checks_inserted", "count");
    ("partition.max_check_share", "ratio"); ("slicer.remove_s", "s");
    ("slicer.instrs_removed", "count"); ("interp.compile_s", "s");
    ("workloads.trace_gen_s", "s"); ("interp.calls", "count");
    ("interp.steps_per_call", "count"); ("interp.us_per_call", "us");
    ("interp.ns_per_step", "ns"); ("interp.minor_words_per_call", "words");
    ("interp.self_share_pct", "%"); ("bridge.us_per_call", "us");
    ("serve.self_share_pct", "%"); ("serve.batch_factor", "ratio");
    ("serve.groups_spawned", "count"); ("serve.peak_groups", "count");
    ("serve.mean_service_us", "us"); ("nxe.runs", "count");
    ("nxe.synced_syscalls", "count"); ("nxe.lockstep_syscalls", "count");
    ("nxe.ns_per_sync", "ns"); ("nxe.minor_words_per_sync", "words");
    ("nxe.lockstep_wait_p99_us", "us"); ("nxe.avg_syscall_gap", "slots");
    ("machine.context_switches_per_sync", "ratio"); ("machine.cache_pressure_peak", "ratio");
    ("cluster.ns_per_sync", "ns"); ("cluster.minor_words_per_sync", "words");
    ("cluster.remote_checked", "count"); ("cluster.replicated_results", "count");
    ("net.msgs_per_sync", "ratio"); ("net.retransmits", "count");
    ("net.rtt_p99_us", "us"); ("gc.minor_words_per_sync", "words");
    ("gc.promoted_words_per_sync", "words"); ("gc.major_collections", "count");
    ("telemetry.live_p99_err_pct", "%"); ("bench.trace_overhead_pct", "%");
    ("failed_pct", "%"); ("sim_p50_us", "us"); ("sim_p99_us", "us");
    ("sim_goodput_rps", "1/s"); ("wire_bytes_per_sync", "B");
  ]

(* Span table: per kind, count, total and self time, self share of the
   workload span. *)
let span_table tot ~root_ns =
  Printf.printf "  %-24s %8s %12s %12s %7s\n" "span" "count" "total ms" "self ms" "self %";
  List.iter
    (fun k ->
      let t : Spans.total = tot k in
      if t.count > 0 then
        Printf.printf "  %-24s %8d %12.3f %12.3f %7.2f\n" (Spans.kind_name k) t.count
          (i2f t.dur_ns /. 1e6) (i2f t.self_ns /. 1e6)
          (100.0 *. i2f t.self_ns /. i2f root_ns))
    (List.init (Array.length !Spans.kind_names) Fun.id)

(* Host time inside the workload and setup spans but outside every layer
   span is not attributed to any layer.  It must stay below this share
   of the traced host time, or the per-layer split explains too little. *)
let max_unattributed_pct = 5.0

let attribution_errors tot ~root_ns =
  let unattributed = (tot k_workload).Spans.self_ns + (tot W.k_setup).Spans.self_ns in
  let pct = 100.0 *. i2f unattributed /. i2f root_ns in
  Printf.printf "  unattributed (workload + setup self time): %.3f ms, %.2f%% of %.3f ms traced\n"
    (i2f unattributed /. 1e6) pct (i2f root_ns /. 1e6);
  if pct <= max_unattributed_pct then []
  else
    [ Printf.sprintf "spans: %.2f%% of the traced host time is unattributed (limit %.0f%%)" pct
        max_unattributed_pct ]

let run_traced name ~seed ~seconds =
  let inst = W.setup name ~seed in
  (* Untraced and traced reps alternate, so each pair sees the same host
     speed; the median pair ratio gives the tracing overhead. *)
  let t_end = Spans.now () + int_of_float (seconds *. 1e9) in
  let rec go u t gc =
    if List.length u >= 2 && Spans.now () >= t_end then (List.rev u, List.rev t, gc)
    else begin
      Gc.full_major ();
      let s0 = Gc.quick_stat () in
      let ur = timed inst.W.rep in
      let s1 = Gc.quick_stat () in
      Gc.full_major ();
      Spans.start ();
      W.interp_steps := 0;
      let tr = timed inst.W.rep in
      Spans.stop ();
      go (ur :: u) (tr :: t) (s0, s1)
    end
  in
  let untraced, traced, (s0, s1) = go [] [] (Gc.quick_stat (), Gc.quick_stat ()) in
  (* The analysed trace: set-up, one measured rep and, for the serve
     workloads, the NXE replay, all under one workload span. *)
  Gc.full_major ();
  Spans.start ();
  W.interp_steps := 0;
  let (inst, last, replay_digest), factor =
    Calib.scaled (fun () ->
        Spans.span k_workload (fun () ->
            let inst = W.setup name ~seed in
            let last = timed inst.W.rep in
            (inst, last, inst.W.replay ())))
  in
  Spans.stop ();
  let v = inst.W.verify () in
  print_verdict name ~seed v;
  let tot = Spans.totals () in
  let root_ns = (tot k_workload).Spans.dur_ns in
  span_table tot ~root_ns;
  let span_errors = attribution_errors tot ~root_ns in
  (try
     if not (Sys.file_exists "perfbench/_out") then Sys.mkdir "perfbench/_out" 0o755;
     let path = Printf.sprintf "perfbench/_out/%s-seed%d.trace.json" name seed in
     Spans.write_chrome path;
     Printf.printf "  spans written to %s\n" path
   with Sys_error e -> Printf.printf "  spans not written: %s\n" e);
  let syncs = i2f v.W.syncs in
  let t k = tot k in
  let measured = (t inst.W.measured).dur_ns in
  let share ns = 100.0 *. ratio (i2f ns) (i2f measured) in
  let interp = t W.k_interp and nxe = t W.k_nxe and serve = t W.k_serve in
  let cluster = t W.k_cluster in
  let steps = i2f !W.interp_steps in
  (* span times at reference host speed, in ns *)
  let ns x = i2f x *. factor in
  let secs k = ns (t k).dur_ns /. 1e9 in
  let replay_errors =
    match Option.map Lazy.force replay_digest with
    | Some d when d <> v.digest ->
      [ Printf.sprintf "replay: simulated digest %s differs from the verified %s" d v.digest ]
    | _ -> []
  in
  (match replay_digest with
   | Some _ ->
     Printf.printf
       "  serve self time is a replay estimate: serve.run self minus the replayed NXE runs\n"
   | None -> ());
  let values =
    v.counters @ inst.W.setup_counters
    @ List.filter (fun (n, _) -> n <> "sim_overhead_pct") v.sim
    @ [
        ( "bench.trace_overhead_pct",
          (* adjacent reps share the host's speed, so compare them pairwise *)
          100.0 *. (Stats.median (List.map2 (fun (_, t) (_, u) -> t /. u) traced untraced) -. 1.0) );
        ("sanitizer.instrument_s", secs W.k_instrument);
        ("slicer.remove_s", secs W.k_slice);
        ("interp.compile_s", secs W.k_compile);
        ("workloads.trace_gen_s", secs W.k_trace_gen);
        ("interp.calls", i2f interp.count);
        ("interp.steps_per_call", ratio steps (i2f interp.count));
        ("interp.us_per_call", ratio (ns interp.dur_ns /. 1e3) (i2f interp.count));
        ("interp.ns_per_step", ratio (ns interp.dur_ns) steps);
        ("interp.minor_words_per_call", ratio interp.words (i2f interp.count));
        ("interp.self_share_pct", share interp.self_ns);
        ("bridge.us_per_call", ratio (ns (t W.k_bridge).dur_ns /. 1e3) (i2f (t W.k_bridge).count));
        ("serve.self_share_pct", if serve.count = 0 then 0.0 else share (serve.self_ns - nxe.dur_ns));
        ("nxe.ns_per_sync", ratio (ns nxe.dur_ns) syncs);
        ("nxe.minor_words_per_sync", ratio nxe.words syncs);
        ("cluster.ns_per_sync", ratio (ns cluster.dur_ns) syncs);
        ("cluster.minor_words_per_sync", ratio cluster.words syncs);
        ("gc.minor_words_per_sync", ratio (s1.Gc.minor_words -. s0.Gc.minor_words) syncs);
        ("gc.promoted_words_per_sync", ratio (s1.Gc.promoted_words -. s0.Gc.promoted_words) syncs);
        ("gc.major_collections", i2f (s1.Gc.major_collections - s0.Gc.major_collections));
      ]
  in
  let reps = List.map fst (untraced @ traced @ [ last ]) in
  let attempted, failed = counts reps in
  finish
    ~errors:(v.errors @ rep_checks v reps @ span_errors @ replay_errors)
    ~attempted ~failed
    (List.map
       (fun (n, u) -> (n, u, Option.value (List.assoc_opt n values) ~default:0.0))
       per_layer_units)

(* ------------------------------------------------------------------ *)
(* Self-test: the output checks must be able to fail. *)

let selftest () =
  let ok = ref true in
  let expect what cond =
    Printf.printf "%-64s %s\n" what (if cond then "ok" else "FAILED");
    if not cond then ok := false
  in
  let v = W.split_checks (Ir_parser.parse_exn Handler.source) in
  let compiled = List.map Interp.compile v.W.variants in
  let rng = Rng.create 7 in
  let requests = 1200 in
  let inputs = Array.init requests (fun _ -> Int64.of_int (Rng.int rng (1 lsl 30))) in
  let clean = W.ir_source ~inputs compiled in
  let base = Interp.compile v.W.base in
  let serve source =
    (W.serving ~requests ~offered_rps:W.ir_serve_rps ~arrival_seed:7 ~source
       ~baseline:(fun ~req_id ->
         Bridge.trace_of_run (Interp.run_compiled base ~entry:"main" ~args:[ inputs.(req_id) ]))
       ~setup_errors:[] ~setup_counters:[])
      .W.verify ()
  in
  expect "clean ir_serve run passes every output check" ((serve clean).W.errors = []);
  (* One perturbed syscall argument in variant 1 of request 17. *)
  let rec perturb = function
    | Trace.Sys sc :: rest ->
      Trace.Sys (Syscall.with_args sc (List.map (Int64.add 1L) sc.Syscall.args)) :: rest
    | op :: rest -> op :: perturb rest
    | [] -> []
  in
  let perturbed =
    {
      clean with
      Serve.src_request =
        (fun ~req_id ->
          let ts = clean.Serve.src_request ~req_id in
          if req_id = 17 then List.mapi (fun i t -> if i = 1 then perturb t else t) ts else ts);
    }
  in
  let errs = (serve perturbed).W.errors in
  List.iter (Printf.printf "  tripped: %s\n") errs;
  expect "perturbed argument trips the divergence check"
    (List.exists (fun e -> String.length e >= 11 && String.sub e 0 11 = "request 17 ") errs);
  expect "clean variants cover every check exactly once" (W.coverage v = []);
  let dropped = List.hd (Slicer.discover v.W.instrumented) in
  let v' =
    {
      v with
      W.variants = List.map (Slicer.remove_checks ~sink_filter:(fun s -> s = dropped)) v.W.variants;
    }
  in
  let errs = W.coverage v' in
  List.iter (Printf.printf "  tripped: %s\n") errs;
  expect "one check dropped from every variant trips the coverage check" (errs <> []);
  exit (if !ok then 0 else 1)

let () =
  let usage () =
    prerr_endline
      ("usage: main.exe --workload {" ^ String.concat "|" W.names_all
     ^ "} --seed N --seconds S --trace 0|1\n       main.exe --selftest");
    exit 2
  in
  match Array.to_list Sys.argv with
  | [ _; "--selftest" ] -> selftest ()
  | [ _; "--workload"; w; "--seed"; s; "--seconds"; sec; "--trace"; tr ] -> (
    match (int_of_string_opt s, float_of_string_opt sec) with
    | Some seed, Some seconds when List.mem w W.names_all && seconds > 0.0 -> (
      match tr with
      | "0" -> run_untraced w ~seed ~seconds
      | "1" -> run_traced w ~seed ~seconds
      | _ -> usage ())
    | _ -> usage ())
  | _ -> usage ()
