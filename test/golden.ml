(* Golden-file harness shared by the engine's golden suites.  Each
   scenario is a bare rendering plus renderings with pure observers
   attached (profile collector, telemetry sink): every observed rendering
   must equal the bare one, and the bare one must equal the committed
   test/golden/NAME.golden.

   Regenerate with BUNSHIN_REGEN_GOLDEN=test/golden and the suite's
   executable (dune exec test/test_nxe_golden.exe, ...). *)

module M = Bunshin_machine.Machine
module Sc = Bunshin_syscall.Syscall
module Nxe = Bunshin_nxe.Nxe
module F = Bunshin_forensics.Forensics

let regen_dir = Sys.getenv_opt "BUNSHIN_REGEN_GOLDEN"

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* [check [(name, bare, [(observer, rendering); ...]); ...]] *)
let check scenarios =
  let failures = ref [] in
  let fail s = failures := s :: !failures in
  List.iter
    (fun (name, base, observed) ->
      List.iter
        (fun (observer, r) ->
          if r <> base then
            fail (Printf.sprintf "%s: %s-attached report differs from bare run" name observer))
        observed;
      (match regen_dir with
       | Some d -> write_file (Filename.concat d (name ^ ".golden")) base
       | None ->
         let path = Filename.concat "golden" (name ^ ".golden") in
         if not (Sys.file_exists path) then fail (name ^ ": missing golden " ^ path)
         else if In_channel.with_open_bin path In_channel.input_all <> base then begin
           fail (name ^ ": report drifted from golden");
           (* Leave the fresh rendering in the build dir for diffing. *)
           write_file (name ^ ".fresh") base
         end);
      print_string ("golden " ^ name ^ ": checked\n"))
    scenarios;
  match !failures with
  | [] -> if regen_dir <> None then print_string "goldens regenerated\n"
  | fs ->
    List.iter (fun f -> prerr_endline ("FAIL " ^ f)) fs;
    exit 1

(* ------------------------------------------------------------------ *)
(* Report sections the local and placed renderings share, in canonical
   text (floats in hex, so the comparison is bit-exact). *)

let fl f = Printf.sprintf "%h" f
let line b fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt
let sc_str = function None -> "-" | Some sc -> Format.asprintf "%a" Sc.pp sc

let head b ~outcome ~incident ~total_time ~finish ~cpu ~synced ~executed ~lockstep =
  (match outcome with
   | `All_finished -> line b "outcome: all_finished"
   | `Aborted (a : Nxe.alert) ->
     line b "outcome: aborted chan=%d pos=%d variant=%d" a.al_channel a.al_position a.al_variant;
     line b "  expected: %s" a.al_expected;
     line b "  got: %s" a.al_got;
     line b "  expected_sc: %s" (sc_str a.al_expected_sc);
     line b "  got_sc: %s" (sc_str a.al_got_sc));
  (match incident with
   | None -> line b "incident: -"
   | Some inc -> line b "incident: %s" (F.to_json inc));
  line b "total_time: %s" (fl total_time);
  line b "variant_finish: %s" (String.concat " " (List.map fl finish));
  line b "variant_cpu: %s" (String.concat " " (List.map fl cpu));
  line b "synced_syscalls: %d" synced;
  line b "executed_syscalls: %d" executed;
  line b "lockstep_syscalls: %d" lockstep

let verdicts b ~status ~coverage ~faults =
  List.iteri
    (fun v st ->
      match st with
      | Nxe.Healthy -> line b "variant_status[%d]: healthy" v
      | Nxe.Quarantined { q_time; q_cause; q_restarts } ->
        line b "variant_status[%d]: quarantined t=%s cause=%s restarts=%d" v (fl q_time)
          (Nxe.cause_string q_cause) q_restarts
      | Nxe.Recovered { q_time; q_cause; r_time } ->
        line b "variant_status[%d]: recovered q=%s cause=%s r=%s" v (fl q_time)
          (Nxe.cause_string q_cause) (fl r_time))
    status;
  line b "coverage_loss: %s" (String.concat "," coverage);
  List.iteri (fun i inc -> line b "fault_incident[%d]: %s" i (F.to_json inc)) faults

let hists b =
  List.iter (fun (name, cells) ->
      line b "hist %s: %s" name
        (String.concat " " (List.map (fun (ub, c) -> Printf.sprintf "%s:%d" (fl ub) c) cells)))

let machine b label (st : M.stats) =
  line b "%s: total=%s ctx=%d pressure_peak=%s" label (fl st.M.total_time) st.M.context_switches
    (fl st.M.cache_pressure_peak)
