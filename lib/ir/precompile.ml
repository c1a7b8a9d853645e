open Ast
module Vec = Bunshin_util.Vec

let func_addr_base = 0x4000_0000L

let k_unbound = '\000'
let k_bad_global = '\001'
let k_int = '\002'
let k_ptr = '\003'
let k_func = '\004'
let k_undef = '\005'

type intr =
  | IPrint
  | IMalloc
  | IFree
  | IBoundsOk
  | IInAlloc
  | INotFreed
  | IInitOk
  | IAddOk
  | IMulOk
  | IShiftOk
  | ICodePtrOk
  | IReport of string
  | ISyscall of string
  | IUnknown of string

let intr_name = function
  | IPrint -> Runtime_api.print
  | IMalloc -> Runtime_api.malloc
  | IFree -> Runtime_api.free
  | IBoundsOk -> Runtime_api.bounds_ok
  | IInAlloc -> Runtime_api.in_alloc
  | INotFreed -> Runtime_api.not_freed
  | IInitOk -> Runtime_api.init_ok
  | IAddOk -> Runtime_api.add_ok
  | IMulOk -> Runtime_api.mul_ok
  | IShiftOk -> Runtime_api.shift_ok
  | ICodePtrOk -> Runtime_api.code_ptr_ok
  | IReport n | ISyscall n | IUnknown n -> n

let intr_is_helper = function
  | IBoundsOk | IInAlloc | INotFreed | IInitOk | IAddOk | IMulOk | IShiftOk | ICodePtrOk ->
    true
  | IPrint | IMalloc | IFree | IReport _ | ISyscall _ | IUnknown _ -> false

let classify_intrinsic name =
  if Runtime_api.is_report_handler name then IReport name
  else if name = Runtime_api.print then IPrint
  else if name = Runtime_api.malloc then IMalloc
  else if name = Runtime_api.free then IFree
  else if name = Runtime_api.bounds_ok then IBoundsOk
  else if name = Runtime_api.in_alloc then IInAlloc
  else if name = Runtime_api.not_freed then INotFreed
  else if name = Runtime_api.init_ok then IInitOk
  else if name = Runtime_api.add_ok then IAddOk
  else if name = Runtime_api.mul_ok then IMulOk
  else if name = Runtime_api.code_ptr_ok then ICodePtrOk
  else if name = Runtime_api.shift_ok then IShiftOk
  else if String.starts_with ~prefix:Runtime_api.syscall_prefix name then ISyscall name
  else IUnknown name

type callee = CFunc of int | CIntr of intr

type ptarget = TBlock of int | TUnknown of string

type pinstr =
  | PBin of int * binop * int * int
  | PCmp of int * cmpop * int * int
  | PAlloca of int * int
  | PLoad of int * int
  | PStore of int * int
  | PCall of int * callee * int array
  | PCallInd of int * int * int array
  | PSelect of int * int * int * int

type pphi = { ph_dst : int; ph_tmp : int; ph_incoming : (int * int) array }

type pterm =
  | PRet of int option
  | PBr of ptarget
  | PCondBr of int * ptarget * ptarget
  | PUnreachable

type pblock = {
  pb_label : string;
  pb_phis : pphi array;
  pb_body : pinstr array;
  pb_term : pterm;
}

type pfunc = {
  pf_name : string;
  pf_nparams : int;
  pf_param_slots : int array;
  pf_nslots : int;
  pf_slot_names : string array;
  pf_kinds : Bytes.t;
  pf_payloads : Bytes.t;
  pf_global_slots : (int * int) array;
  pf_blocks : pblock array;
}

type arena = {
  mutable a_busy : bool;
  a_mem : Shadow.t;
  a_allocs : int Vec.t;
  a_allocas : int Vec.t;
  a_global_base : int array;
  mutable a_kinds : Bytes.t;
  mutable a_payloads : Bytes.t;
  mutable a_sp : int;
}

type t = {
  p_src : modul;
  p_funcs : pfunc array;
  p_func_index : (string, int) Hashtbl.t;
  p_globals : global array;
  p_global_index : (string, int) Hashtbl.t;
  p_arena : arena Lazy.t;
}

let ret_slot = 0
let undef_slot = 1
let arena_slots = 256

let make_arena ~globals =
  {
    a_busy = false;
    a_mem = Shadow.create ();
    a_allocs = Vec.create ();
    a_allocas = Vec.create ();
    a_global_base = Array.make globals 0;
    a_kinds = Bytes.make arena_slots k_unbound;
    a_payloads = Bytes.make (8 * arena_slots) '\000';
    a_sp = undef_slot + 1;
  }

let new_arena pm = make_arena ~globals:(Array.length pm.p_globals)

let compile_func ~func_index ~global_index (f : func) : pfunc =
  let nslots = ref 0 and names_rev = ref [] in
  (* the template is built in oversized buffers and copied out at the end *)
  let kinds = ref (Bytes.create 64) and payloads = ref (Bytes.create 512) in
  let new_slot name kind payload =
    let i = !nslots in
    incr nslots;
    names_rev := name :: !names_rev;
    if i = Bytes.length !kinds then begin
      kinds := Bytes.extend !kinds 0 i;
      payloads := Bytes.extend !payloads 0 (8 * i)
    end;
    Bytes.set !kinds i kind;
    Bytes.set_int64_ne !payloads (8 * i) payload;
    i
  in
  let blank_slot name = new_slot name k_unbound 0L in
  let regs : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let reg r =
    match Hashtbl.find_opt regs r with
    | Some i -> i
    | None ->
      let i = blank_slot r in
      Hashtbl.add regs r i;
      i
  in
  (* Slot numbering: parameters first, then definitions in program order,
     then scratch and operand slots as they are first needed.  A
     use textually before its def (legal at runtime if control flow
     defines it first) still finds the def's slot; a register that no
     instruction defines gets a slot of its own that is never written, so
     reading it raises the unbound-register error. *)
  let param_slots = Array.of_list (List.map reg f.f_params) in
  List.iter
    (fun b ->
      List.iter
        (fun i -> match def_of_instr i with Some r -> ignore (reg r) | None -> ())
        b.b_instrs)
    f.f_blocks;
  (* Phi scratch slots, shared by the blocks: the k-th phi of any block
     evaluates into [scratch.(k)]. *)
  let scratch = ref [||] in
  let scratch_slot k =
    if k = Array.length !scratch then scratch := Array.append !scratch [| blank_slot "" |];
    !scratch.(k)
  in
  let global_slots = ref [] in
  (* Each occurrence of a constant, global or function address gets a
     slot of its own: sharing them would save a few bytes of frame but
     cost a structural hash per operand at compile time. *)
  let operand = function
    | Reg r -> reg r
    | Int n -> new_slot "" k_int n
    | Null -> new_slot "" k_ptr 0L
    | Undef -> new_slot "" k_undef 0L
    | Global g -> (
      match Hashtbl.find_opt global_index g with
      | Some gi ->
        let i = new_slot g k_ptr 0L in
        global_slots := (i, gi) :: !global_slots;
        i
      | None -> (
        match Hashtbl.find_opt func_index g with
        | Some fi -> new_slot g k_func (Int64.add func_addr_base (Int64.of_int fi))
        | None -> new_slot g k_bad_global 0L))
  in
  let label_index = Hashtbl.create 16 in
  List.iteri
    (fun i b ->
      if not (Hashtbl.mem label_index b.b_label) then Hashtbl.add label_index b.b_label i)
    f.f_blocks;
  let target l =
    match Hashtbl.find_opt label_index l with Some i -> TBlock i | None -> TUnknown l
  in
  let dst_slot = function Some r -> reg r | None -> -1 in
  let operands l = Array.of_list (List.map operand l) in
  let cinstr = function
    | Phi _ -> assert false
    | Bin (r, op, a, b) -> PBin (reg r, op, operand a, operand b)
    | Cmp (r, op, a, b) -> PCmp (reg r, op, operand a, operand b)
    | Alloca (r, n) -> PAlloca (reg r, n)
    | Load (r, p) -> PLoad (reg r, operand p)
    | Store (v, p) -> PStore (operand v, operand p)
    | Gep (r, p, idx) -> PBin (reg r, Add, operand p, operand idx)
    | Call (dst, callee, args) ->
      let c =
        match Hashtbl.find_opt func_index callee with
        | Some i -> CFunc i
        | None -> CIntr (classify_intrinsic callee)
      in
      PCall (dst_slot dst, c, operands args)
    | CallInd (dst, fp, args) -> PCallInd (dst_slot dst, operand fp, operands args)
    | Select (r, c, a, b) -> PSelect (reg r, operand c, operand a, operand b)
  in
  let cblock b =
    let phis, body = List.partition (function Phi _ -> true | _ -> false) b.b_instrs in
    let pb_phis =
      Array.of_list
        (List.mapi
           (fun k -> function
             | Phi (r, incoming) ->
               {
                 ph_dst = reg r;
                 ph_tmp = scratch_slot k;
                 ph_incoming =
                   Array.of_list
                     (List.map
                        (fun (l, v) ->
                          ( (match Hashtbl.find_opt label_index l with
                             | Some i -> i
                             | None -> -2),
                            operand v ))
                        incoming);
               }
             | _ -> assert false)
           phis)
    in
    let pb_term =
      match b.b_term with
      | Ret v -> PRet (Option.map operand v)
      | Br l -> PBr (target l)
      | CondBr (c, l1, l2) -> PCondBr (operand c, target l1, target l2)
      | Unreachable -> PUnreachable
    in
    { pb_label = b.b_label; pb_phis; pb_body = Array.of_list (List.map cinstr body); pb_term }
  in
  let pf_blocks = Array.of_list (List.map cblock f.f_blocks) in
  let n = !nslots in
  {
    pf_name = f.f_name;
    pf_nparams = List.length f.f_params;
    pf_param_slots = param_slots;
    pf_nslots = n;
    pf_slot_names = Array.of_list (List.rev !names_rev);
    pf_kinds = Bytes.sub !kinds 0 n;
    pf_payloads = Bytes.sub !payloads 0 (8 * n);
    pf_global_slots = Array.of_list (List.rev !global_slots);
    pf_blocks;
  }

let compile (m : modul) : t =
  let funcs = Array.of_list m.m_funcs in
  let func_index = Hashtbl.create (max 16 (2 * Array.length funcs)) in
  (* First binding wins, mirroring [Ast.find_func]'s List.find_opt. *)
  Array.iteri
    (fun i f -> if not (Hashtbl.mem func_index f.f_name) then Hashtbl.add func_index f.f_name i)
    funcs;
  let globals = Array.of_list m.m_globals in
  let global_index = Hashtbl.create 16 in
  (* Last binding wins, mirroring the reference state's Hashtbl.replace. *)
  Array.iteri (fun i g -> Hashtbl.replace global_index g.g_name i) globals;
  {
    p_src = m;
    p_funcs = Array.map (compile_func ~func_index ~global_index) funcs;
    p_func_index = func_index;
    p_globals = globals;
    p_global_index = global_index;
    p_arena = lazy (make_arena ~globals:(Array.length globals));
  }
