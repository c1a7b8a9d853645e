(* Tests for Bunshin_forensics: majority-vote blame attribution, mismatch
   classification, check-site attribution for real sanitizer detections,
   and the incident JSON round trip.  The flight-recorder windows live in
   the NXE's slot ring and are tested there (test_nxe.ml, "recorder"). *)

open Bunshin_ir
module B = Builder
module San = Bunshin_sanitizer.Sanitizer
module Inst = Bunshin_sanitizer.Instrument
module F = Bunshin_forensics.Forensics

let rec_ ?(pos = 0) ?(time = 0.0) name args =
  { F.r_pos = pos; r_name = name; r_args = args; r_time = time }

let issued ?pos ?time name args = F.Issued (rec_ ?pos ?time name args)

(* ------------------------------------------------------------------ *)
(* Blame attribution *)

let test_blame_majority_3 () =
  (* Two agree, one differs: the outlier is blamed no matter who was
     flagged by the monitor's first failing comparison. *)
  let votes =
    [| issued "write" [ 1L; 5L ]; issued "write" [ 1L; 5L ]; issued "write" [ 1L; 6L ] |]
  in
  let blamed, basis = F.blame ~votes ~flagged:1 in
  Alcotest.(check int) "outlier blamed" 2 blamed;
  Alcotest.(check bool) "majority of 2" true (basis = F.Majority 2)

let test_blame_majority_5 () =
  let w5 = issued "write" [ 1L; 5L ] and w6 = issued "write" [ 1L; 6L ] in
  let blamed, basis = F.blame ~votes:[| w5; w6; w5; w5; w5 |] ~flagged:1 in
  Alcotest.(check int) "outlier blamed" 1 blamed;
  Alcotest.(check bool) "majority of 4" true (basis = F.Majority 4);
  (* The leader itself can be the outlier: variant 0 went off-script but
     the monitor flags the first follower whose comparison failed. *)
  let blamed, basis = F.blame ~votes:[| w6; w5; w5; w5; w5 |] ~flagged:1 in
  Alcotest.(check int) "leader blamed" 0 blamed;
  Alcotest.(check bool) "majority of 4 again" true (basis = F.Majority 4)

let test_blame_tie_n2 () =
  let votes = [| issued "write" [ 1L; 5L ]; issued "write" [ 1L; 6L ] |] in
  let blamed, basis = F.blame ~votes ~flagged:1 in
  Alcotest.(check int) "flagged variant blamed on tie" 1 blamed;
  Alcotest.(check bool) "tie" true (basis = F.Tie)

let test_blame_pending_abstains () =
  (* A variant that never reached the slot casts no ballot: 1 vs 1 among
     the voters is a tie even with three variants. *)
  let votes = [| issued "write" [ 1L; 5L ]; issued "write" [ 1L; 6L ]; F.Pending |] in
  let blamed, basis = F.blame ~votes ~flagged:1 in
  Alcotest.(check int) "falls back to flagged" 1 blamed;
  Alcotest.(check bool) "tie" true (basis = F.Tie)

let test_classify () =
  let w5 = issued "write" [ 1L; 5L ] in
  Alcotest.(check bool) "same name, different args" true
    (F.classify ~votes:[| w5; issued "write" [ 1L; 6L ] |] ~blamed:1
     = F.Argument_mismatch);
  Alcotest.(check bool) "different syscall" true
    (F.classify ~votes:[| w5; issued "read" [ 3L; 5L ] |] ~blamed:1
     = F.Sequence_mismatch);
  Alcotest.(check bool) "one side exited" true
    (F.classify ~votes:[| w5; F.Exited |] ~blamed:1 = F.Premature_exit)

(* ------------------------------------------------------------------ *)
(* Check-site attribution, against real sanitizer detections *)

let detect_with san m args =
  let inst = Inst.apply_exn [ san ] m in
  let r = Interp.run inst ~entry:"main" ~args in
  match r.Interp.outcome with
  | Interp.Detected d -> (r, d)
  | _ -> Alcotest.fail "expected a sanitizer detection"

let overflow_prog () =
  let b = B.create "of" in
  B.start_func b ~name:"main" ~params:[ "i" ];
  let buf = B.alloca b 4 in
  let p = B.gep b buf (Ast.Reg "i") in
  B.store b (B.cst 1) p;
  B.ret b (Some (B.cst 0));
  B.finish b

let uninit_prog () =
  let b = B.create "uninit" in
  B.start_func b ~name:"main" ~params:[];
  let p = B.call b "malloc" [ B.cst 1 ] in
  let v = B.load b p in
  B.call_void b "print" [ v ];
  B.ret b None;
  B.finish b

let test_check_site_asan () =
  let _, d = detect_with San.asan (overflow_prog ()) [ 10L ] in
  let cs = F.check_site_of_detection ~variant:1 d in
  Alcotest.(check int) "variant" 1 cs.F.cs_variant;
  Alcotest.(check string) "pass" "asan" cs.F.cs_pass;
  Alcotest.(check string) "handler" "__asan_report_store" cs.F.cs_handler;
  Alcotest.(check string) "func" "main" cs.F.cs_func;
  Alcotest.(check bool) "check id parsed from san.fail.N" true (cs.F.cs_check_id >= 0);
  Alcotest.(check string) "sink block"
    (Printf.sprintf "san.fail.%d" cs.F.cs_check_id)
    cs.F.cs_block

let test_check_site_msan () =
  let _, d = detect_with San.msan (uninit_prog ()) [] in
  let cs = F.check_site_of_detection ~variant:0 d in
  Alcotest.(check string) "pass" "msan" cs.F.cs_pass;
  Alcotest.(check string) "handler" "__msan_report" cs.F.cs_handler;
  Alcotest.(check string) "func" "main" cs.F.cs_func;
  Alcotest.(check bool) "check id parsed" true (cs.F.cs_check_id >= 0)

let test_pass_of_handler () =
  Alcotest.(check string) "asan" "asan" (F.pass_of_handler "__asan_report_load");
  Alcotest.(check string) "msan" "msan" (F.pass_of_handler "__msan_report");
  Alcotest.(check string) "stack cookie" "stackcookie"
    (F.pass_of_handler "__stackcookie_report");
  Alcotest.(check string) "interpreter trap" "ir" (F.pass_of_handler "unreachable");
  Alcotest.(check string) "unknown" "" (F.pass_of_handler "somebody_else");
  Alcotest.(check int) "block id" 7 (F.check_id_of_block "san.fail.7");
  Alcotest.(check int) "non-sink block" (-1) (F.check_id_of_block "entry")

(* ------------------------------------------------------------------ *)
(* Incidents from interpreter runs *)

let print_prog () =
  let b = B.create "p" in
  B.start_func b ~name:"main" ~params:[ "x" ];
  B.call_void b "print" [ Ast.Reg "x" ];
  B.ret b (Some (B.cst 0));
  B.finish b

let test_incident_of_identical_runs () =
  let m = print_prog () in
  let r = Interp.run m ~entry:"main" ~args:[ 7L ] in
  Alcotest.(check bool) "no incident" true (F.incident_of_runs [ r; r ] = None)

let test_incident_of_divergent_runs () =
  let m = print_prog () in
  let r1 = Interp.run m ~entry:"main" ~args:[ 7L ] in
  let r2 = Interp.run m ~entry:"main" ~args:[ 8L ] in
  (* Three variants, one outlier: majority blame without any NXE. *)
  match F.incident_of_runs [ r1; r1; r2 ] with
  | None -> Alcotest.fail "streams diverge, incident expected"
  | Some inc ->
    Alcotest.(check int) "divergent slot" 0 inc.F.inc_position;
    Alcotest.(check int) "outlier blamed" 2 inc.F.inc_blamed;
    Alcotest.(check bool) "majority basis" true (inc.F.inc_basis = F.Majority 2);
    Alcotest.(check bool) "argument mismatch" true
      (inc.F.inc_mismatch = F.Argument_mismatch);
    Alcotest.(check int) "one tape per variant" 3 (Array.length inc.F.inc_tapes)

let test_incident_with_detection_join () =
  (* The §5.3 story end to end, without the NXE: the ASan variant issues
     the report write, the unchecked variant does not; the 2-variant tie
     is broken by the detection and the check site is attributed. *)
  let m = overflow_prog () in
  let inst = Inst.apply_exn [ San.asan ] m in
  let ra = Interp.run inst ~entry:"main" ~args:[ 10L ] in
  let rb = Interp.run m ~entry:"main" ~args:[ 10L ] in
  (match ra.Interp.outcome with
   | Interp.Detected _ -> ()
   | _ -> Alcotest.fail "asan variant should detect");
  match F.incident_of_runs [ ra; rb ] with
  | None -> Alcotest.fail "report write diverges the streams"
  | Some inc ->
    let det r =
      match r.Interp.outcome with Interp.Detected d -> Some d | _ -> None
    in
    let inc = F.refine_with_detections inc [| det ra; det rb |] in
    Alcotest.(check int) "detecting variant blamed" 0 inc.F.inc_blamed;
    Alcotest.(check bool) "tie broken by detection" true
      (inc.F.inc_basis = F.Tie_broken_by_detection);
    (match inc.F.inc_check_site with
     | Some cs ->
       Alcotest.(check string) "asan attributed" "asan" cs.F.cs_pass;
       Alcotest.(check string) "in main" "main" cs.F.cs_func
     | None -> Alcotest.fail "check site should be attributed");
    let text = F.to_text inc in
    Alcotest.(check bool) "text names the blame" true
      (let re = "blamed: variant 0" in
       let rec find i =
         i + String.length re <= String.length text
         && (String.sub text i (String.length re) = re || find (i + 1))
       in
       find 0)

(* ------------------------------------------------------------------ *)
(* JSON round trip *)

let test_json_roundtrip_extremes () =
  (* Hand-built incident with full-range int64 arguments and every vote
     constructor: the decimal-string encoding must survive the trip. *)
  let votes =
    [|
      issued ~pos:3 ~time:12.5 "write" [ Int64.max_int; Int64.min_int; -1L ];
      F.Exited;
      F.Pending;
    |]
  in
  let tapes =
    [|
      [ rec_ ~pos:2 ~time:1.25 "mmap" [ 4096L ]; rec_ ~pos:3 ~time:12.5 "write" [ 0L ] ];
      [];
      [ rec_ ~pos:0 ~time:0.0 "read" [] ];
    |]
  in
  let inc =
    F.build ~channel:2 ~position:3 ~flagged:1 ~expected:"write(1, 1)"
      ~got:"<exit>" ~time:99.0625 ~votes ~tapes ()
  in
  (match F.of_json (F.to_json inc) with
   | Ok inc' -> Alcotest.(check bool) "round trip equal" true (inc = inc')
   | Error e -> Alcotest.fail ("decode failed: " ^ e));
  (* And with a check site joined in. *)
  let d = { Interp.d_handler = "__msan_report"; d_func = "f"; d_block = "san.fail.2" } in
  let inc = F.refine_with_detections inc [| None; Some d; None |] in
  match F.of_json (F.to_json inc) with
  | Ok inc' -> Alcotest.(check bool) "round trip with site" true (inc = inc')
  | Error e -> Alcotest.fail ("decode failed: " ^ e)

let test_json_roundtrip_real () =
  let m = print_prog () in
  let r1 = Interp.run m ~entry:"main" ~args:[ 7L ] in
  let r2 = Interp.run m ~entry:"main" ~args:[ 8L ] in
  match F.incident_of_runs [ r1; r2 ] with
  | None -> Alcotest.fail "incident expected"
  | Some inc -> (
    match F.of_json (F.to_json inc) with
    | Ok inc' -> Alcotest.(check bool) "round trip equal" true (inc = inc')
    | Error e -> Alcotest.fail ("decode failed: " ^ e))

let test_json_rejects_garbage () =
  Alcotest.(check bool) "not json" true (F.of_json "][" |> Result.is_error);
  Alcotest.(check bool) "wrong shape" true (F.of_json "{\"x\": 1}" |> Result.is_error);
  Alcotest.(check bool) "trailing garbage" true
    (match F.Json.parse "{} junk" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "bunshin_forensics"
    [
      ( "blame",
        [
          Alcotest.test_case "majority of 3" `Quick test_blame_majority_3;
          Alcotest.test_case "majority of 5" `Quick test_blame_majority_5;
          Alcotest.test_case "tie at n=2" `Quick test_blame_tie_n2;
          Alcotest.test_case "pending abstains" `Quick test_blame_pending_abstains;
          Alcotest.test_case "mismatch classification" `Quick test_classify;
        ] );
      ( "check-site",
        [
          Alcotest.test_case "asan attribution" `Quick test_check_site_asan;
          Alcotest.test_case "msan attribution" `Quick test_check_site_msan;
          Alcotest.test_case "handler table" `Quick test_pass_of_handler;
        ] );
      ( "incident",
        [
          Alcotest.test_case "identical runs: none" `Quick test_incident_of_identical_runs;
          Alcotest.test_case "divergent runs: majority" `Quick
            test_incident_of_divergent_runs;
          Alcotest.test_case "detection join + text" `Quick test_incident_with_detection_join;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip extremes" `Quick test_json_roundtrip_extremes;
          Alcotest.test_case "round trip real incident" `Quick test_json_roundtrip_real;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
    ]
