(* Host-speed reference.  The machine this benchmark runs on is shared:
   other tenants slow a whole stretch of a run, for seconds to minutes,
   by up to ~1.6x, so a raw host time says as much about the neighbours
   as about the code.  A fixed kernel that owes nothing to the program
   (allocation, pointer chasing and hashing, like the simulator's own
   work) is timed around every measurement; host times are scaled by
   [reference_s / kernel time], i.e. reported at the speed the host has
   when the kernel takes [reference_s].  A change to the program moves
   the measurement and not the kernel, so it shows in full. *)

type node = { key : int; mutable next : node option }

let kernel () =
  let tbl = Hashtbl.create 1024 in
  let acc = ref 0 in
  for round = 1 to 6 do
    let arr = Array.init 2000 (fun i -> { key = (i * 7919) lxor round; next = None }) in
    Array.iteri (fun i n -> if i > 0 then arr.(i - 1).next <- Some n) arr;
    let rec walk n s = match n.next with None -> s + n.key | Some m -> walk m (s + n.key) in
    acc := !acc + walk arr.(0) 0;
    Array.iter (fun n -> Hashtbl.replace tbl (n.key land 4095) n.key) arr
  done;
  !acc + Hashtbl.length tbl

(* The kernel's time on an uncontended 2.1 GHz x86-64 host (the fastest
   phase observed while this benchmark was built). *)
let reference_s = 1.5e-3

(* Best of three kernel runs: the host's current speed. *)
let kernel_s () =
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Spans.now () in
    ignore (Sys.opaque_identity (kernel ()));
    best := Float.min !best (float_of_int (Spans.now () - t0) /. 1e9)
  done;
  !best

(* [scaled f] runs [f ()] between two kernel timings and returns its
   value with the factor that converts host times measured inside it to
   reference speed.  The heap is collected, untimed, before each kernel
   and before [f], so neither kernel pays for garbage [f] left behind
   and [f] starts from a collected heap. *)
let scaled f =
  Gc.full_major ();
  let k0 = kernel_s () in
  Gc.full_major ();
  let v = f () in
  Gc.full_major ();
  let k1 = kernel_s () in
  (v, reference_s /. ((k0 +. k1) /. 2.0))
