(** Module precompilation for the interpreter fast path.

    The reference interpreter ({!Interp.run_reference}) re-resolves
    everything on every step: callees with [List.find_opt] over
    [m_funcs], jump targets with [List.find_opt] over [f_blocks],
    registers through a per-call [(string, rvalue) Hashtbl], phis by
    re-partitioning each block's instruction list, and intrinsics through
    a chain of string comparisons.  This module performs all of those
    resolutions {e once per module}:

    - functions and block labels become array indices;
    - registers are numbered into dense frame slots, and so is every
      other operand (see {e Operands are slots} below), so a call frame
      is a window of two flat planes instead of a hashtable;
    - each block's phis are pre-split from its straight-line body, with
      incoming edges resolved to predecessor block indices;
    - intrinsic names collapse to a variant tag ({!intr}), so dispatch is
      a [match] rather than an [if name = ...] chain, and the
      "is this a check helper" telemetry test is a tag test instead of
      [List.mem name Runtime_api.helpers].

    Resolution failures that the reference interpreter reports lazily
    (unbound registers, unknown globals, unknown callees, jumps to
    missing blocks) compile to poison slots ({!k_unbound},
    {!k_bad_global}) and poison forms ({!intr.IUnknown},
    {!ptarget.TUnknown}) that raise the identical [Invalid_argument] only
    if actually executed — precompilation itself never rejects a module.

    {b Values.}  The fast engine represents a value as a {e kind} byte
    ({!k_int}, {!k_ptr}, {!k_func}, {!k_undef}) plus a 64-bit
    {e payload}: the integer for [k_int]; the address, as
    [Int64.of_int], for [k_ptr]; the code address
    ([func_addr_base + index]) for [k_func]; unused for [k_undef], which
    reads as the run's [undef_as].  Kinds and payloads live in separate
    [Bytes] planes and payloads are read and written with the unboxed
    [%caml_bytes_get64u] / [%caml_bytes_set64u] primitives, so no value
    is ever boxed.

    {b Operands are slots.}  Every operand of an instruction, phi or
    terminator is a frame slot index.  Besides one slot per register
    (parameters first) and the phi scratch slots, each function has one
    slot per occurrence of a constant, global, function address or
    unknown global.  {!pfunc.pf_kinds} and {!pfunc.pf_payloads} are the
    per-function {e template} of those slots: constants carry their
    value; registers and scratch slots carry {!k_unbound}; a global's
    slot is a [k_ptr] whose payload the engine writes from the run's
    layout ({!pfunc.pf_global_slots}) when it sets a frame up.  Frame
    set-up is therefore two blits and the global writes.

    {b Poison slots.}  A register that no instruction defines keeps
    {!k_unbound} forever, and [@name] naming neither a global nor a
    function gets a {!k_bad_global} slot.  Reading either raises the
    reference's error; {!pfunc.pf_slot_names} carries the register or
    global name the message needs.  A defined register read before
    control flow wrote it raises the same way, since every register slot
    starts [k_unbound].

    The compiled form is a snapshot: mutating the source {!Ast.modul}
    afterwards (e.g. with the slicer) does not update it — recompile.
    It also owns one {!arena} that its runs reuse; see
    {!Interp.run_compiled} for what that means for concurrent use. *)

open Ast

val func_addr_base : int64
(** Code address of function index 0; function [i] lives at
    [func_addr_base + i]. *)

(** {1 Value kinds}  Kind bytes of the register and memory planes.  The
    poison kinds sort below [k_int], so one comparison tells whether a
    slot may be read.  A memory slot's init byte holds the kind of its
    stored value, so ['\000'] there means "never stored". *)

val k_unbound : char
(** Register not (yet) written, or never defined: reading raises
    ["unbound register"]. *)

val k_bad_global : char
(** [@name] resolving to nothing: reading raises ["unknown global"]. *)

val k_int : char
val k_ptr : char
val k_func : char
val k_undef : char

(** Intrinsic tag, mirroring the reference dispatch chain. *)
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
  | IReport of string        (** report handler; the name feeds the detection *)
  | ISyscall of string       (** [sys_*]; the full name is the event payload *)
  | IUnknown of string       (** raises [Invalid_argument] when called *)

val intr_name : intr -> string

val intr_is_helper : intr -> bool
(** The eight check helpers of [Runtime_api.helpers] — the ones the
    per-variant telemetry counters track. *)

val classify_intrinsic : string -> intr

type callee = CFunc of int | CIntr of intr

type ptarget = TBlock of int | TUnknown of string

(** Straight-line instructions (phis live in {!pblock.pb_phis}).  Every
    [int] operand is a frame slot; destination slot [-1] means the result
    is discarded.  [Gep] compiles to [PBin Add], which is exactly its
    reference semantics. *)
type pinstr =
  | PBin of int * binop * int * int
  | PCmp of int * cmpop * int * int
  | PAlloca of int * int       (** destination, slot count *)
  | PLoad of int * int
  | PStore of int * int        (** value, pointer *)
  | PCall of int * callee * int array
  | PCallInd of int * int * int array
  | PSelect of int * int * int * int

type pphi = {
  ph_dst : int;
  ph_tmp : int;
      (** scratch slot: every phi of a block is evaluated into its scratch
          slot before any destination is written, preserving the
          simultaneous-merge semantics *)
  ph_incoming : (int * int) array;
      (** predecessor block index (or [-2] for a label that names no
          block, which can never match) paired with the merged slot *)
}

type pterm =
  | PRet of int option
  | PBr of ptarget
  | PCondBr of int * ptarget * ptarget
  | PUnreachable

type pblock = {
  pb_label : string;
      (** original AST label — kept so detections can name the IR location
          (check-site attribution) identically to the reference engine *)
  pb_phis : pphi array;
  pb_body : pinstr array;
  pb_term : pterm;
}

type pfunc = {
  pf_name : string;
  pf_nparams : int;
  pf_param_slots : int array;  (** frame slot of each parameter position *)
  pf_nslots : int;             (** frame size: registers, scratch and operand slots *)
  pf_slot_names : string array;
      (** slot -> register or global name, for diagnostics; [""] for
          constants and scratch slots *)
  pf_kinds : Bytes.t;          (** template kind per slot ([pf_nslots] bytes) *)
  pf_payloads : Bytes.t;       (** template payload per slot ([8 * pf_nslots] bytes) *)
  pf_global_slots : (int * int) array;
      (** (slot, global index): slots whose payload is the global's base
          address in the current run *)
  pf_blocks : pblock array;      (** entry is index 0; [[||]] if the function has no blocks *)
}

(** The storage a run of the fast engine works in, kept with the module
    and reused by its runs so that a run pays its set-up once per
    compiled module: the shadow memory, the allocation table and the
    register planes.  Only {!Interp} reads or writes it. *)
type arena = {
  mutable a_busy : bool;         (** a run is using the arena *)
  a_mem : Shadow.t;
  a_allocs : int Bunshin_util.Vec.t;
      (** allocation id -> [(base lsl 1) lor freed] *)
  a_allocas : int Bunshin_util.Vec.t;
      (** ids of the allocas of the active frames, innermost last *)
  a_global_base : int array;     (** global index -> base address in this run *)
  mutable a_kinds : Bytes.t;     (** register kind plane: the frame stack *)
  mutable a_payloads : Bytes.t;  (** register payload plane, 8 bytes per slot *)
  mutable a_sp : int;            (** first free slot of the frame stack *)
}

val ret_slot : int
(** Plane slot through which calls and intrinsics return their value. *)

val undef_slot : int
(** Plane slot holding the run's [undef_as] as a [k_int]. *)

val arena_slots : int
(** Initial (and retained) capacity of the register planes, in slots. *)

type t = {
  p_src : modul;                 (** the module this was compiled from *)
  p_funcs : pfunc array;
  p_func_index : (string, int) Hashtbl.t;   (** first binding wins, like [find_func] *)
  p_globals : global array;      (** in allocation (declaration) order *)
  p_global_index : (string, int) Hashtbl.t; (** last binding wins, like the reference state *)
  p_arena : arena Lazy.t;
      (** reused by every run of this module; allocated by the first *)
}

val compile : modul -> t

val new_arena : t -> arena
(** A fresh, empty arena for the module. *)
