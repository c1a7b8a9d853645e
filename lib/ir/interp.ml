open Ast
module Tel = Bunshin_telemetry.Telemetry
module P = Precompile
module Vec = Bunshin_util.Vec

type event = Output of int64 | Syscall of string * int64 list

type crash =
  | Div_by_zero
  | Null_deref
  | Wild_pointer of int64
  | Bad_indirect_call of int64
  | Stack_overflow_sim

type hazard =
  | Oob_write of int64
  | Oob_read of int64
  | Uaf_write of int64
  | Uaf_read of int64
  | Uninit_read of int64
  | Double_free of int64
  | Bad_free of int64

type detection = { d_handler : string; d_func : string; d_block : string }

type outcome =
  | Finished of int64 option
  | Detected of detection
  | Crashed of crash
  | Fuel_exhausted

type run = {
  outcome : outcome;
  events : event list;
  timeline : (int * event) list;
  hazards : hazard list;
  steps : int;
}

type config = {
  fuel : int;
  max_depth : int;
  redzone : int;
  undef_as : int64;
  layout_seed : int;
}

let default_config =
  { fuel = 1_000_000; max_depth = 10_000; redzone = 1; undef_as = 0L; layout_seed = 0 }

(* Where interpreter steps go, by intrinsic class.  Purely additive
   accounting for the overhead-attribution profiler: attaching a record
   changes no outcome, event, hazard or step count, and both engines
   classify identically (the differential suite runs with one attached). *)
type phase_counts = {
  mutable pc_steps : int;    (* instructions retired (the run's [steps]) *)
  mutable pc_checks : int;   (* check-helper intrinsic calls *)
  mutable pc_runtime : int;  (* allocator / report / print runtime calls *)
  mutable pc_syscalls : int; (* modelled syscalls *)
}

let phase_counts () = { pc_steps = 0; pc_checks = 0; pc_runtime = 0; pc_syscalls = 0 }

exception Trap of outcome

let func_addr_base = P.func_addr_base

type access = Read | Write

(* Trace handle: the interpreter's clock is the instruction counter, so its
   events live in their own telemetry domain, never mixed with machine µs. *)
type itel = {
  i_dom : Tel.domain;
  i_hits : Tel.Counter.t;   (* check intrinsics evaluated *)
  i_fails : Tel.Counter.t;  (* of those, how many returned "unsafe" *)
  i_detect : Tel.Counter.t; (* report handlers fired *)
}

let make_itel telemetry =
  Option.map
    (fun dom ->
      let sink = Tel.domain_sink dom in
      let p = Tel.domain_name dom in
      {
        i_dom = dom;
        i_hits = Tel.counter sink (p ^ ".check_hits");
        i_fails = Tel.counter sink (p ^ ".check_fails");
        i_detect = Tel.counter sink (p ^ ".detections");
      })
    telemetry

(* ------------------------------------------------------------------ *)
(* Arithmetic, shared by both engines *)

let[@inline] add_overflows a b =
  let s = Int64.add a b in
  (a > 0L && b > 0L && s < 0L) || (a < 0L && b < 0L && s >= 0L)

let[@inline] mul_overflows a b =
  if a = 0L || b = 0L then false
  else if (a = -1L && b = Int64.min_int) || (b = -1L && a = Int64.min_int) then true
  else
    let p = Int64.mul a b in
    Int64.div p a <> b

(* ================================================================== *)
(* Reference interpreter — the seed semantics, preserved verbatim.     *)
(* The fast path below must match it bit-for-bit on outcome, events,   *)
(* timeline, hazards and step counts; the differential suite in        *)
(* test/test_ir.ml enforces this.  It resolves names lazily through    *)
(* hashtables and lists on every step, which is exactly what makes it  *)
(* slow and exactly what makes it a trustworthy oracle.                *)
(* ================================================================== *)

type rvalue = VInt of int64 | VPtr of int | VFunc of string | VUndef

type alloc = { a_base : int; a_size : int; mutable a_freed : bool }

type region_kind = RAlloc of alloc | RRedzone

type cell = { mutable cv : rvalue; mutable cinit : bool }

type state = {
  cfg : config;
  modul : modul;
  cells : (int, cell) Hashtbl.t;
  region : (int, region_kind) Hashtbl.t;
  allocs : (int, alloc) Hashtbl.t; (* base -> alloc *)
  func_addr : (string, int64) Hashtbl.t;
  addr_func : (int64, string) Hashtbl.t;
  global_base : (string, int) Hashtbl.t;
  mutable next_addr : int;
  layout_rng : Bunshin_util.Rng.t option;
  mutable timeline_rev : (int * event) list;
  mutable hazards_rev : hazard list;
  mutable steps : int;
  tel : itel option;
  ph : phase_counts option;
}

(* The timeline is the single event record; the [events] list of a run is
   derived from it at result-construction time. *)
let record_event st e = st.timeline_rev <- (st.steps, e) :: st.timeline_rev
let record_hazard st h = st.hazards_rev <- h :: st.hazards_rev

let tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.cfg.fuel then raise (Trap Fuel_exhausted)

let allocate st size =
  let size = max 1 size in
  (* ASLR model: random inter-allocation padding perturbs relative offsets
     between objects, in addition to the randomized base. *)
  (match st.layout_rng with
   | Some rng -> st.next_addr <- st.next_addr + Bunshin_util.Rng.int rng 4
   | None -> ());
  let base = st.next_addr in
  let a = { a_base = base; a_size = size; a_freed = false } in
  Hashtbl.replace st.allocs base a;
  for i = 0 to size - 1 do
    Hashtbl.replace st.region (base + i) (RAlloc a);
    Hashtbl.replace st.cells (base + i) { cv = VInt 0L; cinit = false }
  done;
  for i = 0 to st.cfg.redzone - 1 do
    Hashtbl.replace st.region (base + size + i) RRedzone;
    Hashtbl.replace st.cells (base + size + i) { cv = VInt 0L; cinit = false }
  done;
  st.next_addr <- base + size + st.cfg.redzone;
  a

let init_state ?telemetry ?phases cfg modul =
  let st =
    {
      cfg;
      modul;
      cells = Hashtbl.create 1024;
      region = Hashtbl.create 1024;
      allocs = Hashtbl.create 64;
      func_addr = Hashtbl.create 16;
      addr_func = Hashtbl.create 16;
      global_base = Hashtbl.create 16;
      next_addr =
        (if cfg.layout_seed = 0 then 0x1000
         else
           0x1000
           + Bunshin_util.Rng.int (Bunshin_util.Rng.create cfg.layout_seed) 0x8000);
      layout_rng =
        (if cfg.layout_seed = 0 then None
         else Some (Bunshin_util.Rng.create (cfg.layout_seed * 7919)));
      timeline_rev = [];
      hazards_rev = [];
      steps = 0;
      tel = make_itel telemetry;
      ph = phases;
    }
  in
  List.iteri
    (fun i f ->
      let addr = Int64.add func_addr_base (Int64.of_int i) in
      Hashtbl.replace st.func_addr f.f_name addr;
      Hashtbl.replace st.addr_func addr f.f_name)
    modul.m_funcs;
  List.iter
    (fun g ->
      let a = allocate st g.g_size in
      Hashtbl.replace st.global_base g.g_name a.a_base;
      Array.iteri
        (fun i v ->
          if i < g.g_size then begin
            let cell = Hashtbl.find st.cells (a.a_base + i) in
            cell.cv <- VInt v;
            cell.cinit <- true
          end)
        g.g_init)
    modul.m_globals;
  st

(* ------------------------------------------------------------------ *)
(* Value coercions *)

let to_int st = function
  | VInt n -> n
  | VPtr a -> Int64.of_int a
  | VFunc f -> (try Hashtbl.find st.func_addr f with Not_found -> 0L)
  | VUndef -> st.cfg.undef_as

let truthy st v = to_int st v <> 0L

(* Interpret any runtime value as a raw address, the way a machine would. *)
let addr_of st v =
  match v with
  | VPtr a -> a
  | VInt n -> Int64.to_int n
  | VFunc _ -> Int64.to_int (to_int st v)
  | VUndef -> Int64.to_int st.cfg.undef_as

(* ------------------------------------------------------------------ *)
(* Memory access *)

let classify st addr =
  match Hashtbl.find_opt st.region addr with
  | None -> `Unmapped
  | Some RRedzone -> `Redzone
  | Some (RAlloc a) -> if a.a_freed then `Freed else `Live

let mem_access st access v =
  let addr = addr_of st v in
  if addr = 0 then raise (Trap (Crashed Null_deref));
  (match classify st addr with
   | `Unmapped -> raise (Trap (Crashed (Wild_pointer (Int64.of_int addr))))
   | `Redzone ->
     record_hazard st
       (match access with
        | Read -> Oob_read (Int64.of_int addr)
        | Write -> Oob_write (Int64.of_int addr))
   | `Freed ->
     record_hazard st
       (match access with
        | Read -> Uaf_read (Int64.of_int addr)
        | Write -> Uaf_write (Int64.of_int addr))
   | `Live -> ());
  (* A region entry without a backing cell is still a wild access: report
     it like any other unmapped address instead of leaking [Not_found]. *)
  match Hashtbl.find_opt st.cells addr with
  | Some cell -> (addr, cell)
  | None -> raise (Trap (Crashed (Wild_pointer (Int64.of_int addr))))

let mem_load st v =
  let addr, cell = mem_access st Read v in
  if not cell.cinit then begin
    record_hazard st (Uninit_read (Int64.of_int addr));
    VInt st.cfg.undef_as
  end
  else cell.cv

let mem_store st v ptr =
  let _, cell = mem_access st Write ptr in
  cell.cv <- v;
  cell.cinit <- true

(* ------------------------------------------------------------------ *)
(* Arithmetic *)

let eval_binop st op va vb =
  match (va, vb) with
  | VUndef, _ | _, VUndef -> VUndef
  | _ ->
    let a = to_int st va and b = to_int st vb in
    let ptr_result n =
      (* Pointer arithmetic keeps pointerness so later dereference works. *)
      match (va, vb, op) with
      | VPtr _, VInt _, (Add | Sub) | VInt _, VPtr _, Add -> VPtr (Int64.to_int n)
      | _ -> VInt n
    in
    (match op with
     | Add -> ptr_result (Int64.add a b)
     | Sub -> ptr_result (Int64.sub a b)
     | Mul -> VInt (Int64.mul a b)
     | Sdiv -> if b = 0L then raise (Trap (Crashed Div_by_zero)) else VInt (Int64.div a b)
     | Srem -> if b = 0L then raise (Trap (Crashed Div_by_zero)) else VInt (Int64.rem a b)
     | And -> VInt (Int64.logand a b)
     | Or -> VInt (Int64.logor a b)
     | Xor -> VInt (Int64.logxor a b)
     | Shl -> VInt (Int64.shift_left a (Int64.to_int b land 63))
     | Lshr -> VInt (Int64.shift_right_logical a (Int64.to_int b land 63)))

let eval_cmpop st op va vb =
  let a = to_int st va and b = to_int st vb in
  let r =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Slt -> a < b
    | Sle -> a <= b
    | Sgt -> a > b
    | Sge -> a >= b
  in
  VInt (if r then 1L else 0L)

(* ------------------------------------------------------------------ *)
(* Intrinsics *)

let check_result b = VInt (if b then 1L else 0L)

let call_intrinsic_raw st ~in_func ~in_block name args =
  let arg n =
    match List.nth_opt args n with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "intrinsic %s: missing argument %d" name n)
  in
  if Runtime_api.is_report_handler name then begin
    (match st.tel with
     | Some tel ->
       Tel.Counter.incr tel.i_detect;
       Tel.instant tel.i_dom
         ~args:[ ("handler", name); ("func", in_func); ("block", in_block) ]
         ~ts:(float_of_int st.steps) ~cat:"interp" "detected"
     | None -> ());
    raise (Trap (Detected { d_handler = name; d_func = in_func; d_block = in_block }))
  end
  else if String.starts_with ~prefix:Runtime_api.syscall_prefix name then begin
    (* Hoisted above the name-equality chain: no modelled-syscall name
       collides with an exact intrinsic name, and syscalls are by far the
       most frequent intrinsic in server workloads. *)
    record_event st (Syscall (name, List.map (to_int st) args));
    VInt 0L
  end
  else if name = Runtime_api.print then begin
    record_event st (Output (to_int st (arg 0)));
    VInt 0L
  end
  else if name = Runtime_api.malloc then begin
    let n = to_int st (arg 0) in
    if Int64.compare n (Int64.of_int Runtime_api.malloc_max_slots) > 0 then VPtr 0
    else VPtr (allocate st (Int64.to_int n)).a_base
  end
  else if name = Runtime_api.free then begin
    let base = addr_of st (arg 0) in
    (match Hashtbl.find_opt st.allocs base with
     | Some a when not a.a_freed -> a.a_freed <- true
     | Some _ -> record_hazard st (Double_free (Int64.of_int base))
     | None -> record_hazard st (Bad_free (Int64.of_int base)));
    VInt 0L
  end
  else if name = Runtime_api.bounds_ok then
    let a = addr_of st (arg 0) in
    check_result (a <> 0 && classify st a = `Live)
  else if name = Runtime_api.in_alloc then
    let a = addr_of st (arg 0) in
    check_result
      (match classify st a with `Live | `Freed -> true | `Redzone | `Unmapped -> false)
  else if name = Runtime_api.not_freed then
    (* Temporal-only: a key/lock check fails iff the referent was freed;
       spatially wild addresses are not its business. *)
    let a = addr_of st (arg 0) in
    check_result (match classify st a with `Freed -> false | `Live | `Redzone | `Unmapped -> true)
  else if name = Runtime_api.init_ok then
    let a = addr_of st (arg 0) in
    check_result (match Hashtbl.find_opt st.cells a with Some c -> c.cinit | None -> false)
  else if name = Runtime_api.add_ok then
    check_result (not (add_overflows (to_int st (arg 0)) (to_int st (arg 1))))
  else if name = Runtime_api.mul_ok then
    check_result (not (mul_overflows (to_int st (arg 0)) (to_int st (arg 1))))
  else if name = Runtime_api.code_ptr_ok then
    check_result
      (match arg 0 with
       | VFunc _ -> true
       | v -> Hashtbl.mem st.addr_func (to_int st v))
  else if name = Runtime_api.shift_ok then
    let n = to_int st (arg 0) in
    check_result (n >= 0L && n < 64L)
  else invalid_arg ("Interp: unknown intrinsic " ^ name)

let call_intrinsic st ~in_func ~in_block name args =
  (match st.ph with
   | Some pc ->
     if List.mem name Runtime_api.helpers then pc.pc_checks <- pc.pc_checks + 1
     else if String.starts_with ~prefix:Runtime_api.syscall_prefix name then
       pc.pc_syscalls <- pc.pc_syscalls + 1
     else pc.pc_runtime <- pc.pc_runtime + 1
   | None -> ());
  match st.tel with
  | Some tel when List.mem name Runtime_api.helpers ->
    let r = call_intrinsic_raw st ~in_func ~in_block name args in
    Tel.Counter.incr tel.i_hits;
    (match r with VInt 0L -> Tel.Counter.incr tel.i_fails | _ -> ());
    r
  | _ -> call_intrinsic_raw st ~in_func ~in_block name args

(* ------------------------------------------------------------------ *)
(* Execution *)

let rec exec_call st ~depth ~caller ~caller_block fname (args : rvalue list) : rvalue =
  if depth > st.cfg.max_depth then raise (Trap (Crashed Stack_overflow_sim));
  match find_func st.modul fname with
  | None -> call_intrinsic st ~in_func:caller ~in_block:caller_block fname args
  | Some f ->
    if List.length args <> List.length f.f_params then
      invalid_arg
        (Printf.sprintf "Interp: call to %s with %d args, expected %d" fname (List.length args)
           (List.length f.f_params));
    let env : (reg, rvalue) Hashtbl.t = Hashtbl.create 32 in
    List.iter2 (fun p v -> Hashtbl.replace env p v) f.f_params args;
    let frame_allocs = ref [] in
    let eval v =
      match v with
      | Reg r -> (
        match Hashtbl.find_opt env r with
        | Some rv -> rv
        | None -> invalid_arg (Printf.sprintf "Interp: %s: unbound register %%%s" fname r))
      | Int n -> VInt n
      | Null -> VPtr 0
      | Undef -> VUndef
      | Global g -> (
        match Hashtbl.find_opt st.global_base g with
        | Some base -> VPtr base
        | None ->
          if Hashtbl.mem st.func_addr g then VFunc g
          else invalid_arg (Printf.sprintf "Interp: unknown global @%s" g))
    in
    let set r v = Hashtbl.replace env r v in
    let finish result =
      (* Frame teardown: allocas become dangling (stack use-after-return). *)
      List.iter (fun a -> a.a_freed <- true) !frame_allocs;
      result
    in
    let rec run_block prev_label b =
      (* Phis evaluate simultaneously against the incoming edge. *)
      let phis, rest = List.partition (function Phi _ -> true | _ -> false) b.b_instrs in
      let phi_values =
        List.map
          (fun i ->
            match i with
            | Phi (r, incoming) ->
              tick st;
              let v =
                match prev_label with
                | None -> VUndef
                | Some l -> (
                  match List.assoc_opt l incoming with Some v -> eval v | None -> VUndef)
              in
              (r, v)
            | _ -> assert false)
          phis
      in
      List.iter (fun (r, v) -> set r v) phi_values;
      List.iter
        (fun i ->
          tick st;
          match i with
          | Phi _ -> assert false
          | Bin (r, op, a, bv) -> set r (eval_binop st op (eval a) (eval bv))
          | Cmp (r, op, a, bv) -> set r (eval_cmpop st op (eval a) (eval bv))
          | Alloca (r, n) ->
            let a = allocate st n in
            frame_allocs := a :: !frame_allocs;
            set r (VPtr a.a_base)
          | Load (r, p) -> set r (mem_load st (eval p))
          | Store (v, p) -> mem_store st (eval v) (eval p)
          | Gep (r, p, idx) -> set r (eval_binop st Add (eval p) (eval idx))
          | Call (dst, callee, cargs) ->
            let result =
              exec_call st ~depth:(depth + 1) ~caller:fname ~caller_block:b.b_label callee
                (List.map eval cargs)
            in
            (match dst with Some r -> set r result | None -> ())
          | CallInd (dst, fp, cargs) ->
            let target =
              match eval fp with
              | VFunc fn -> fn
              | v -> (
                let addr = to_int st v in
                match Hashtbl.find_opt st.addr_func addr with
                | Some fn -> fn
                | None -> raise (Trap (Crashed (Bad_indirect_call addr))))
            in
            let result =
              exec_call st ~depth:(depth + 1) ~caller:fname ~caller_block:b.b_label target
                (List.map eval cargs)
            in
            (match dst with Some r -> set r result | None -> ())
          | Select (r, c, a, bv) -> set r (if truthy st (eval c) then eval a else eval bv))
        rest;
      tick st;
      match b.b_term with
      | Ret None -> finish (VInt 0L)
      | Ret (Some v) ->
        let result = eval v in
        finish result
      | Br l -> jump b.b_label l
      | CondBr (c, l1, l2) -> jump b.b_label (if truthy st (eval c) then l1 else l2)
      | Unreachable ->
        raise (Trap (Detected { d_handler = "unreachable"; d_func = fname; d_block = b.b_label }))
    and jump from l =
      match find_block f l with
      | Some b -> run_block (Some from) b
      | None -> invalid_arg (Printf.sprintf "Interp: %s: jump to unknown block %s" fname l)
    in
    (match st.tel with
     | None -> run_block None (entry_block f)
     | Some tel ->
       (* Span per function activation on the instruction-step clock; the
          end event must also fire when a Trap unwinds through us. *)
       Tel.span_begin tel.i_dom ~ts:(float_of_int st.steps) ~cat:"interp" fname;
       (match run_block None (entry_block f) with
        | r ->
          Tel.span_end tel.i_dom ~ts:(float_of_int st.steps) ~cat:"interp" fname;
          r
        | exception e ->
          Tel.span_end tel.i_dom ~ts:(float_of_int st.steps) ~cat:"interp" fname;
          raise e))

let run_reference ?(config = default_config) ?telemetry ?phases modul ~entry ~args =
  (match find_func modul entry with
   | Some _ -> ()
   | None -> invalid_arg ("Interp.run: no such function " ^ entry));
  let st = init_state ?telemetry ?phases config modul in
  let outcome =
    try
      let v =
        exec_call st ~depth:0 ~caller:entry ~caller_block:"" entry
          (List.map (fun n -> VInt n) args)
      in
      Finished (Some (to_int st v))
    with Trap o -> o
  in
  (match phases with Some pc -> pc.pc_steps <- pc.pc_steps + st.steps | None -> ());
  let timeline = List.rev st.timeline_rev in
  {
    outcome;
    events = List.map snd timeline;
    timeline;
    hazards = List.rev st.hazards_rev;
    steps = st.steps;
  }

(* ================================================================== *)
(* Fast path: precompiled modules over unboxed planes.                 *)
(* Same observable semantics as the reference engine above, with the   *)
(* per-step name resolution and per-address hashing compiled away:     *)
(* a value is a kind byte plus an int64 payload in two Bytes planes,   *)
(* frames are windows of those planes, every operand is a frame slot,  *)
(* jumps are indices, memory is Shadow pages, and intrinsics dispatch  *)
(* on a Precompile.intr tag.  No instruction step allocates.           *)
(* ================================================================== *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type fstate = {
  f_cfg : config;
  f_pm : P.t;
  f_ar : P.arena;
  mutable f_next : int;
  f_rng : Bunshin_util.Rng.t option;
  mutable f_timeline_rev : (int * event) list;
  mutable f_hazards_rev : hazard list;
  mutable f_steps : int;
  f_tel : itel option;
  f_ph : phase_counts option;
}

let frecord_event fst e = fst.f_timeline_rev <- (fst.f_steps, e) :: fst.f_timeline_rev
let frecord_hazard fst h = fst.f_hazards_rev <- h :: fst.f_hazards_rev

(* Register-plane access.  [s] is an absolute plane slot (frame base +
   frame slot).  ocamlopt without flambda boxes an int64 that crosses a
   call it does not inline, so every helper that takes or returns a
   payload is [@inline], and the non-inlined ones below deal in slots,
   kinds and planes only. *)

let[@inline] fkind (ar : P.arena) s = Bytes.unsafe_get ar.P.a_kinds s

(* The integer a value reads as: its payload, or the run's [undef_as]
   (kept in [undef_slot]) for an undef. *)
let[@inline] fint (ar : P.arena) s =
  get64 ar.P.a_payloads
    ((if Bytes.unsafe_get ar.P.a_kinds s = P.k_undef then P.undef_slot else s) lsl 3)

let[@inline] fset (ar : P.arena) s k (v : int64) =
  Bytes.unsafe_set ar.P.a_kinds s k;
  set64 ar.P.a_payloads (s lsl 3) v

let[@inline] fcopy (ar : P.arena) ~src ~dst =
  Bytes.unsafe_set ar.P.a_kinds dst (Bytes.unsafe_get ar.P.a_kinds src);
  set64 ar.P.a_payloads (dst lsl 3) (get64 ar.P.a_payloads (src lsl 3))

(* A pointer result: [VPtr (Int64.to_int n)] in the reference, so the
   payload is [n] truncated to an OCaml int. *)
let[@inline] fset_ptr ar s (n : int64) = fset ar s P.k_ptr (Int64.of_int (Int64.to_int n))

(* The reference's error for reading poison slot [i] of [f]'s frame. *)
let fpoison (f : P.pfunc) k i =
  if k = P.k_bad_global then
    invalid_arg (Printf.sprintf "Interp: unknown global @%s" f.P.pf_slot_names.(i))
  else
    invalid_arg
      (Printf.sprintf "Interp: %s: unbound register %%%s" f.P.pf_name f.P.pf_slot_names.(i))

(* Evaluate operand [i] of the frame at [fb]: raise if it is poison. *)
let[@inline] fcheck (ar : P.arena) f fb i =
  let k = Bytes.unsafe_get ar.P.a_kinds (fb + i) in
  if k < P.k_int then fpoison f k i

let ffreed (ar : P.arena) id = Vec.get ar.P.a_allocs id land 1 = 1

let fallocate fst size =
  let size = max 1 size in
  (match fst.f_rng with
   | Some rng -> fst.f_next <- fst.f_next + Bunshin_util.Rng.int rng 4
   | None -> ());
  let base = fst.f_next in
  let ar = fst.f_ar in
  let id = Vec.length ar.P.a_allocs in
  Vec.push ar.P.a_allocs (base lsl 1);
  Shadow.map_range ar.P.a_mem ~base ~len:size ~tag:Shadow.tag_live ~owner:id;
  Shadow.map_range ar.P.a_mem ~base:(base + size) ~len:fst.f_cfg.redzone
    ~tag:Shadow.tag_redzone ~owner:(-1);
  fst.f_next <- base + size + fst.f_cfg.redzone;
  base

(* Function index of a code address, or -1: the arithmetic inverse of a
   [k_func] payload, replacing the reference addr_func hashtable. *)
let[@inline] ffunc_of_addr pm addr =
  let rel = Int64.sub addr P.func_addr_base in
  if rel >= 0L && rel < Int64.of_int (Array.length pm.P.p_funcs) then Int64.to_int rel
  else -1

let fclassify fst addr =
  let p = Shadow.page_of fst.f_ar.P.a_mem addr in
  let off = addr land Shadow.page_mask in
  let t = Bytes.unsafe_get p.Shadow.tags off in
  if t = Shadow.tag_unmapped then `Unmapped
  else if t = Shadow.tag_redzone then `Redzone
  else if ffreed fst.f_ar (Array.unsafe_get p.Shadow.owner off) then `Freed
  else `Live

(* The page [addr] lives in, after the null, wild, redzone and
   use-after-free outcomes of an access. *)
let fmem_access fst access addr =
  if addr = 0 then raise (Trap (Crashed Null_deref));
  let p = Shadow.page_of fst.f_ar.P.a_mem addr in
  let off = addr land Shadow.page_mask in
  let t = Bytes.unsafe_get p.Shadow.tags off in
  if t = Shadow.tag_unmapped then raise (Trap (Crashed (Wild_pointer (Int64.of_int addr))));
  if t = Shadow.tag_redzone then
    frecord_hazard fst
      (match access with
       | Read -> Oob_read (Int64.of_int addr)
       | Write -> Oob_write (Int64.of_int addr))
  else if ffreed fst.f_ar (Array.unsafe_get p.Shadow.owner off) then
    frecord_hazard fst
      (match access with
       | Read -> Uaf_read (Int64.of_int addr)
       | Write -> Uaf_write (Int64.of_int addr));
  p

let fload fst f fb d pv =
  let ar = fst.f_ar in
  fcheck ar f fb pv;
  let addr = Int64.to_int (fint ar (fb + pv)) in
  let p = fmem_access fst Read addr in
  let off = addr land Shadow.page_mask in
  let k = Bytes.unsafe_get p.Shadow.init off in
  if k = '\000' then begin
    frecord_hazard fst (Uninit_read (Int64.of_int addr));
    fset ar (fb + d) P.k_int (get64 ar.P.a_payloads (P.undef_slot lsl 3))
  end
  else fset ar (fb + d) k (get64 p.Shadow.payload (off lsl 3))

(* The pointer evaluates before the value, like the reference's
   [mem_store st (eval v) (eval p)] application. *)
let fstore fst f fb v pv =
  let ar = fst.f_ar in
  fcheck ar f fb pv;
  fcheck ar f fb v;
  let addr = Int64.to_int (fint ar (fb + pv)) in
  let p = fmem_access fst Write addr in
  let off = addr land Shadow.page_mask in
  Bytes.unsafe_set p.Shadow.init off (fkind ar (fb + v));
  set64 p.Shadow.payload (off lsl 3) (get64 ar.P.a_payloads ((fb + v) lsl 3))

(* Operands evaluate right-to-left like the reference's
   [eval_binop st op (eval a) (eval b)] application. *)
let fbin fst f fb op d a b =
  let ar = fst.f_ar in
  fcheck ar f fb b;
  fcheck ar f fb a;
  let sa = fb + a and sb = fb + b and sd = fb + d in
  let ka = fkind ar sa and kb = fkind ar sb in
  if ka = P.k_undef || kb = P.k_undef then Bytes.unsafe_set ar.P.a_kinds sd P.k_undef
  else begin
    let x = get64 ar.P.a_payloads (sa lsl 3) and y = get64 ar.P.a_payloads (sb lsl 3) in
    match op with
    | Add ->
      (* Pointer arithmetic keeps pointerness so later dereference works. *)
      if (ka = P.k_ptr && kb = P.k_int) || (ka = P.k_int && kb = P.k_ptr) then
        fset_ptr ar sd (Int64.add x y)
      else fset ar sd P.k_int (Int64.add x y)
    | Sub ->
      if ka = P.k_ptr && kb = P.k_int then fset_ptr ar sd (Int64.sub x y)
      else fset ar sd P.k_int (Int64.sub x y)
    | Mul -> fset ar sd P.k_int (Int64.mul x y)
    | Sdiv ->
      if y = 0L then raise (Trap (Crashed Div_by_zero)) else fset ar sd P.k_int (Int64.div x y)
    | Srem ->
      if y = 0L then raise (Trap (Crashed Div_by_zero)) else fset ar sd P.k_int (Int64.rem x y)
    | And -> fset ar sd P.k_int (Int64.logand x y)
    | Or -> fset ar sd P.k_int (Int64.logor x y)
    | Xor -> fset ar sd P.k_int (Int64.logxor x y)
    | Shl -> fset ar sd P.k_int (Int64.shift_left x (Int64.to_int y land 63))
    | Lshr -> fset ar sd P.k_int (Int64.shift_right_logical x (Int64.to_int y land 63))
  end

let fcmp fst f fb op d a b =
  let ar = fst.f_ar in
  fcheck ar f fb b;
  fcheck ar f fb a;
  let x = fint ar (fb + a) and y = fint ar (fb + b) in
  let r =
    match op with
    | Eq -> x = y
    | Ne -> x <> y
    | Slt -> x < y
    | Sle -> x <= y
    | Sgt -> x > y
    | Sge -> x >= y
  in
  fset ar (fb + d) P.k_int (if r then 1L else 0L)

let fselect fst f fb d c a b =
  let ar = fst.f_ar in
  fcheck ar f fb c;
  let s = if fint ar (fb + c) <> 0L then a else b in
  fcheck ar f fb s;
  fcopy ar ~src:(fb + s) ~dst:(fb + d)

let falloca fst fb d n =
  let base = fallocate fst n in
  let ar = fst.f_ar in
  Vec.push ar.P.a_allocas (Vec.length ar.P.a_allocs - 1);
  fset ar (fb + d) P.k_ptr (Int64.of_int base)

(* Intrinsics read their arguments in place, from the caller's frame, and
   return through the arena's [ret_slot]. *)

let farg intr fb (pargs : int array) n =
  if n < Array.length pargs then fb + Array.unsafe_get pargs n
  else invalid_arg (Printf.sprintf "intrinsic %s: missing argument %d" (P.intr_name intr) n)

let[@inline] fret_bool ar b = fset ar P.ret_slot P.k_int (if b then 1L else 0L)

let fcall_intrinsic_raw fst ~in_func ~in_block intr fb (pargs : int array) =
  let ar = fst.f_ar in
  match intr with
  | P.IReport name ->
    (match fst.f_tel with
     | Some tel ->
       Tel.Counter.incr tel.i_detect;
       Tel.instant tel.i_dom
         ~args:[ ("handler", name); ("func", in_func); ("block", in_block) ]
         ~ts:(float_of_int fst.f_steps) ~cat:"interp" "detected"
     | None -> ());
    raise (Trap (Detected { d_handler = name; d_func = in_func; d_block = in_block }))
  | P.ISyscall name ->
    frecord_event fst
      (Syscall (name, List.init (Array.length pargs) (fun k -> fint ar (fb + pargs.(k)))));
    fset ar P.ret_slot P.k_int 0L
  | P.IPrint ->
    frecord_event fst (Output (fint ar (farg intr fb pargs 0)));
    fset ar P.ret_slot P.k_int 0L
  | P.IMalloc ->
    let n = fint ar (farg intr fb pargs 0) in
    if Int64.compare n (Int64.of_int Runtime_api.malloc_max_slots) > 0 then
      fset ar P.ret_slot P.k_ptr 0L
    else fset ar P.ret_slot P.k_ptr (Int64.of_int (fallocate fst (Int64.to_int n)))
  | P.IFree ->
    let base = Int64.to_int (fint ar (farg intr fb pargs 0)) in
    let p = Shadow.page_of ar.P.a_mem base in
    let off = base land Shadow.page_mask in
    (* Only an allocation *base* is a valid free target; the owner record
       check mirrors the reference's base->alloc table lookup. *)
    (if Bytes.unsafe_get p.Shadow.tags off = Shadow.tag_live then begin
       let id = p.Shadow.owner.(off) in
       let a = Vec.get ar.P.a_allocs id in
       if a lsr 1 = base then
         if a land 1 = 1 then frecord_hazard fst (Double_free (Int64.of_int base))
         else Vec.set ar.P.a_allocs id (a lor 1)
       else frecord_hazard fst (Bad_free (Int64.of_int base))
     end
     else frecord_hazard fst (Bad_free (Int64.of_int base)));
    fset ar P.ret_slot P.k_int 0L
  | P.IBoundsOk ->
    let a = Int64.to_int (fint ar (farg intr fb pargs 0)) in
    fret_bool ar (a <> 0 && fclassify fst a = `Live)
  | P.IInAlloc ->
    let a = Int64.to_int (fint ar (farg intr fb pargs 0)) in
    fret_bool ar
      (match fclassify fst a with `Live | `Freed -> true | `Redzone | `Unmapped -> false)
  | P.INotFreed ->
    let a = Int64.to_int (fint ar (farg intr fb pargs 0)) in
    fret_bool ar
      (match fclassify fst a with `Freed -> false | `Live | `Redzone | `Unmapped -> true)
  | P.IInitOk ->
    let a = Int64.to_int (fint ar (farg intr fb pargs 0)) in
    let p = Shadow.page_of ar.P.a_mem a in
    let off = a land Shadow.page_mask in
    fret_bool ar
      (Bytes.unsafe_get p.Shadow.tags off <> Shadow.tag_unmapped
      && Bytes.unsafe_get p.Shadow.init off <> '\000')
  | P.IAddOk ->
    (* argument 1 first, like the reference's right-to-left application *)
    let y = fint ar (farg intr fb pargs 1) in
    let x = fint ar (farg intr fb pargs 0) in
    fret_bool ar (not (add_overflows x y))
  | P.IMulOk ->
    let y = fint ar (farg intr fb pargs 1) in
    let x = fint ar (farg intr fb pargs 0) in
    fret_bool ar (not (mul_overflows x y))
  | P.ICodePtrOk ->
    fret_bool ar (ffunc_of_addr fst.f_pm (fint ar (farg intr fb pargs 0)) >= 0)
  | P.IShiftOk ->
    let n = fint ar (farg intr fb pargs 0) in
    fret_bool ar (n >= 0L && n < 64L)
  | P.IUnknown name -> invalid_arg ("Interp: unknown intrinsic " ^ name)

let fcall_intrinsic fst ~in_func ~in_block intr fb pargs =
  (match fst.f_ph with
   | Some pc ->
     if P.intr_is_helper intr then pc.pc_checks <- pc.pc_checks + 1
     else (
       match intr with
       | P.ISyscall _ -> pc.pc_syscalls <- pc.pc_syscalls + 1
       | _ -> pc.pc_runtime <- pc.pc_runtime + 1)
   | None -> ());
  match fst.f_tel with
  | Some tel when P.intr_is_helper intr ->
    fcall_intrinsic_raw fst ~in_func ~in_block intr fb pargs;
    Tel.Counter.incr tel.i_hits;
    let ar = fst.f_ar in
    if fkind ar P.ret_slot = P.k_int && get64 ar.P.a_payloads (P.ret_slot lsl 3) = 0L then
      Tel.Counter.incr tel.i_fails
  | _ -> fcall_intrinsic_raw fst ~in_func ~in_block intr fb pargs

(* Slot of the incoming value of a phi for predecessor block [prev], or
   -1 when no edge matches — the reference's List.assoc_opt miss. *)
let rec phi_incoming (inc : (int * int) array) prev k =
  if k >= Array.length inc then -1
  else
    let l, s = Array.unsafe_get inc k in
    if l = prev then s else phi_incoming inc prev (k + 1)

let fblock (f : P.pfunc) = function
  | P.TBlock bi -> bi
  | P.TUnknown l -> invalid_arg (Printf.sprintf "Interp: %s: jump to unknown block %s" f.P.pf_name l)

(* Target of an indirect call through slot [fp]: a [k_func] payload is a
   code address, so one inverse serves functions and forged integers. *)
let ftarget fst f fb fp =
  let ar = fst.f_ar in
  fcheck ar f fb fp;
  let addr = fint ar (fb + fp) in
  let k = ffunc_of_addr fst.f_pm addr in
  if k < 0 then raise (Trap (Crashed (Bad_indirect_call addr)));
  k

let fcheck_args fst f fb (pargs : int array) =
  let ar = fst.f_ar in
  for k = 0 to Array.length pargs - 1 do
    fcheck ar f fb (Array.unsafe_get pargs k)
  done

let fgrow (ar : P.arena) need =
  let cap = max need (2 * Bytes.length ar.P.a_kinds) in
  let kinds = Bytes.create cap and payloads = Bytes.create (8 * cap) in
  Bytes.blit ar.P.a_kinds 0 kinds 0 ar.P.a_sp;
  Bytes.blit ar.P.a_payloads 0 payloads 0 (8 * ar.P.a_sp);
  ar.P.a_kinds <- kinds;
  ar.P.a_payloads <- payloads

(* Push a frame for [f] on the arena's frame stack: its slot template, the
   run's global bases, and the arguments, copied from slots
   [src + pargs.(k)].  Returns the frame base. *)
let fpush fst (f : P.pfunc) ~src (pargs : int array) =
  let ar = fst.f_ar in
  let fb = ar.P.a_sp in
  let n = f.P.pf_nslots in
  if fb + n > Bytes.length ar.P.a_kinds then fgrow ar (fb + n);
  Bytes.blit f.P.pf_kinds 0 ar.P.a_kinds fb n;
  Bytes.blit f.P.pf_payloads 0 ar.P.a_payloads (fb lsl 3) (n lsl 3);
  let gs = f.P.pf_global_slots in
  for k = 0 to Array.length gs - 1 do
    let s, gi = Array.unsafe_get gs k in
    set64 ar.P.a_payloads ((fb + s) lsl 3) (Int64.of_int ar.P.a_global_base.(gi))
  done;
  let params = f.P.pf_param_slots in
  for k = 0 to Array.length pargs - 1 do
    fcopy ar ~src:(src + Array.unsafe_get pargs k) ~dst:(fb + Array.unsafe_get params k)
  done;
  ar.P.a_sp <- fb + n;
  fb

(* Call function [fidx] with the (already evaluated) arguments in slots
   [src + pargs.(k)]; its result lands in [ret_slot]. *)
let rec fexec_call fst ~depth fidx ~src (pargs : int array) =
  if depth > fst.f_cfg.max_depth then raise (Trap (Crashed Stack_overflow_sim));
  let f = fst.f_pm.P.p_funcs.(fidx) in
  if Array.length pargs <> f.P.pf_nparams then
    invalid_arg
      (Printf.sprintf "Interp: call to %s with %d args, expected %d" f.P.pf_name
         (Array.length pargs) f.P.pf_nparams);
  match fst.f_tel with
  | None -> fexec_body fst ~depth f ~src pargs
  | Some tel ->
    Tel.span_begin tel.i_dom ~ts:(float_of_int fst.f_steps) ~cat:"interp" f.P.pf_name;
    (match fexec_body fst ~depth f ~src pargs with
     | () -> Tel.span_end tel.i_dom ~ts:(float_of_int fst.f_steps) ~cat:"interp" f.P.pf_name
     | exception e ->
       Tel.span_end tel.i_dom ~ts:(float_of_int fst.f_steps) ~cat:"interp" f.P.pf_name;
       raise e)

and fexec_body fst ~depth (f : P.pfunc) ~src pargs =
  if Array.length f.P.pf_blocks = 0 then
    invalid_arg ("Ast.entry_block: function " ^ f.P.pf_name ^ " has no blocks");
  let fb = fpush fst f ~src pargs in
  let ar = fst.f_ar in
  let allocas = Vec.length ar.P.a_allocas in
  (* The step counter is bumped inline: it runs once per executed
     instruction, the single hottest point of the engine. *)
  let fuel = fst.f_cfg.fuel in
  let blocks = f.P.pf_blocks in
  let bi = ref 0 and prev = ref (-1) and running = ref true in
  while !running do
    let b = Array.unsafe_get blocks !bi in
    let phis = b.P.pb_phis in
    let nphis = Array.length phis in
    if nphis > 0 then begin
      (* Simultaneous merge: every incoming value goes to its phi's
         scratch slot before any destination is assigned. *)
      for i = 0 to nphis - 1 do
        let s = fst.f_steps + 1 in
        fst.f_steps <- s;
        if s > fuel then raise (Trap Fuel_exhausted);
        let ph = Array.unsafe_get phis i in
        let v = if !prev < 0 then -1 else phi_incoming ph.P.ph_incoming !prev 0 in
        if v < 0 then Bytes.unsafe_set ar.P.a_kinds (fb + ph.P.ph_tmp) P.k_undef
        else begin
          fcheck ar f fb v;
          fcopy ar ~src:(fb + v) ~dst:(fb + ph.P.ph_tmp)
        end
      done;
      for i = 0 to nphis - 1 do
        let ph = Array.unsafe_get phis i in
        fcopy ar ~src:(fb + ph.P.ph_tmp) ~dst:(fb + ph.P.ph_dst)
      done
    end;
    let body = b.P.pb_body in
    for i = 0 to Array.length body - 1 do
      let s = fst.f_steps + 1 in
      fst.f_steps <- s;
      if s > fuel then raise (Trap Fuel_exhausted);
      match Array.unsafe_get body i with
      | P.PBin (d, op, a, bv) -> fbin fst f fb op d a bv
      | P.PCmp (d, op, a, bv) -> fcmp fst f fb op d a bv
      | P.PAlloca (d, n) -> falloca fst fb d n
      | P.PLoad (d, pv) -> fload fst f fb d pv
      | P.PStore (v, pv) -> fstore fst f fb v pv
      | P.PCall (dst, callee, pargs) ->
        fcheck_args fst f fb pargs;
        (match callee with
         | P.CFunc fi -> fexec_call fst ~depth:(depth + 1) fi ~src:fb pargs
         | P.CIntr it ->
           (* The reference routes intrinsics through exec_call, whose
              depth guard therefore also applies to them. *)
           if depth + 1 > fst.f_cfg.max_depth then raise (Trap (Crashed Stack_overflow_sim));
           fcall_intrinsic fst ~in_func:f.P.pf_name ~in_block:b.P.pb_label it fb pargs);
        if dst >= 0 then fcopy ar ~src:P.ret_slot ~dst:(fb + dst)
      | P.PCallInd (dst, fp, pargs) ->
        (* Target resolution precedes argument evaluation, as in the
           reference engine. *)
        let fi = ftarget fst f fb fp in
        fcheck_args fst f fb pargs;
        fexec_call fst ~depth:(depth + 1) fi ~src:fb pargs;
        if dst >= 0 then fcopy ar ~src:P.ret_slot ~dst:(fb + dst)
      | P.PSelect (d, c, a, bv) -> fselect fst f fb d c a bv
    done;
    let s = fst.f_steps + 1 in
    fst.f_steps <- s;
    if s > fuel then raise (Trap Fuel_exhausted);
    match b.P.pb_term with
    | P.PRet None ->
      fset ar P.ret_slot P.k_int 0L;
      running := false
    | P.PRet (Some v) ->
      fcheck ar f fb v;
      fcopy ar ~src:(fb + v) ~dst:P.ret_slot;
      running := false
    | P.PBr t ->
      prev := !bi;
      bi := fblock f t
    | P.PCondBr (c, t1, t2) ->
      fcheck ar f fb c;
      prev := !bi;
      bi := fblock f (if fint ar (fb + c) <> 0L then t1 else t2)
    | P.PUnreachable ->
      raise
        (Trap
           (Detected { d_handler = "unreachable"; d_func = f.P.pf_name; d_block = b.P.pb_label }))
  done;
  (* Frame teardown: allocas become dangling (stack use-after-return). *)
  let stack = ar.P.a_allocas in
  for k = allocas to Vec.length stack - 1 do
    let id = Vec.get stack k in
    Vec.set ar.P.a_allocs id (Vec.get ar.P.a_allocs id lor 1)
  done;
  Vec.truncate stack allocas;
  ar.P.a_sp <- fb

(* ------------------------------------------------------------------ *)
(* Entry points *)

let compile = P.compile

(* What a reset arena keeps: beyond these sizes the storage a run grew is
   dropped, so an arena's retained memory is bounded by a constant. *)
let retained_slots = 16 * P.arena_slots
let retained_allocs = 1024

(* Return the arena to its empty state: every address unmapped and never
   stored, no allocation, an empty frame stack. *)
let reset_arena (ar : P.arena) =
  Shadow.reset ar.P.a_mem;
  Vec.clear ar.P.a_allocs ~keep:retained_allocs;
  Vec.clear ar.P.a_allocas ~keep:retained_allocs;
  if Bytes.length ar.P.a_kinds > retained_slots then begin
    ar.P.a_kinds <- Bytes.create P.arena_slots;
    ar.P.a_payloads <- Bytes.create (8 * P.arena_slots)
  end;
  ar.P.a_sp <- P.undef_slot + 1

let frun ar ?telemetry ?phases cfg (pm : P.t) fidx args =
  let fst =
    {
      f_cfg = cfg;
      f_pm = pm;
      f_ar = ar;
      f_next =
        (if cfg.layout_seed = 0 then 0x1000
         else
           0x1000
           + Bunshin_util.Rng.int (Bunshin_util.Rng.create cfg.layout_seed) 0x8000);
      f_rng =
        (if cfg.layout_seed = 0 then None
         else Some (Bunshin_util.Rng.create (cfg.layout_seed * 7919)));
      f_timeline_rev = [];
      f_hazards_rev = [];
      f_steps = 0;
      f_tel = make_itel telemetry;
      f_ph = phases;
    }
  in
  fset ar P.undef_slot P.k_int cfg.undef_as;
  Array.iteri
    (fun gi (g : global) ->
      let base = fallocate fst g.g_size in
      ar.P.a_global_base.(gi) <- base;
      Array.iteri
        (fun i v ->
          if i < g.g_size then begin
            let addr = base + i in
            let p = Shadow.page_of ar.P.a_mem addr in
            let off = addr land Shadow.page_mask in
            Bytes.set p.Shadow.init off P.k_int;
            set64 p.Shadow.payload (off lsl 3) v
          end)
        g.g_init)
    pm.P.p_globals;
  let outcome =
    try
      (* The entry's arguments sit in slots of their own below its frame. *)
      let src = ar.P.a_sp in
      let n = List.length args in
      if src + n > Bytes.length ar.P.a_kinds then fgrow ar (src + n);
      List.iteri (fun k v -> fset ar (src + k) P.k_int v) args;
      ar.P.a_sp <- src + n;
      fexec_call fst ~depth:0 fidx ~src (Array.init n Fun.id);
      Finished (Some (fint ar P.ret_slot))
    with Trap o -> o
  in
  (match phases with Some pc -> pc.pc_steps <- pc.pc_steps + fst.f_steps | None -> ());
  let timeline = List.rev fst.f_timeline_rev in
  {
    outcome;
    events = List.map snd timeline;
    timeline;
    hazards = List.rev fst.f_hazards_rev;
    steps = fst.f_steps;
  }

let run_compiled ?(config = default_config) ?telemetry ?phases (pm : P.t) ~entry ~args =
  let fidx =
    match Hashtbl.find_opt pm.P.p_func_index entry with
    | Some i -> i
    | None -> invalid_arg ("Interp.run: no such function " ^ entry)
  in
  (* The module's arena, unless a run of it is already in progress (a
     re-entrant call): that one gets a fresh arena of its own. *)
  let ar =
    let own = Lazy.force pm.P.p_arena in
    if own.P.a_busy then P.new_arena pm else own
  in
  ar.P.a_busy <- true;
  (* Reset on every way out, so the next run starts from an empty arena
     whether this one finished, trapped or raised. *)
  match frun ar ?telemetry ?phases config pm fidx args with
  | r ->
    reset_arena ar;
    ar.P.a_busy <- false;
    r
  | exception e ->
    reset_arena ar;
    ar.P.a_busy <- false;
    raise e

let run ?config ?telemetry ?phases modul ~entry ~args =
  run_compiled ?config ?telemetry ?phases (P.compile modul) ~entry ~args

let events_equal a b = a.events = b.events

let address_of_global ?(config = default_config) modul name =
  let st = init_state config modul in
  match Hashtbl.find_opt st.global_base name with
  | Some base -> Int64.of_int base
  | None -> invalid_arg ("Interp.address_of_global: unknown global " ^ name)

let address_of_func modul name =
  match find_func modul name with
  | Some _ ->
    let rec index i = function
      | [] -> invalid_arg "unreachable"
      | f :: _ when f.f_name = name -> i
      | _ :: rest -> index (i + 1) rest
    in
    Int64.add func_addr_base (Int64.of_int (index 0 modul.m_funcs))
  | None -> invalid_arg ("Interp.address_of_func: unknown function " ^ name)
