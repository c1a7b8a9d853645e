(** Names of runtime intrinsics shared by the verifier, interpreter,
    sanitizer passes and the check-removal slicer. *)

val malloc : string

(** The largest request, in slots, that [malloc] satisfies.  A larger one
    returns null, as libc does when it cannot satisfy a request, before
    any slot is mapped: both engines map an allocation's slots eagerly,
    so without a bound a single step could take time and memory
    proportional to an attacker-chosen size.  Sizes are compared as
    signed 64-bit values; a negative size keeps allocating one slot. *)
val malloc_max_slots : int

val free : string

(** [print v]: observable output event. *)
val print : string

(** ["sys_"]: modelled syscalls, e.g. [sys_write]. *)
val syscall_prefix : string

(** {1 Sanitizer runtime helpers}

    Pure queries returning I1, inserted by instrumentation passes as the
    condition of a sanity check. *)

(** Address lies inside a live allocation. *)
val bounds_ok : string

(** Address does not point into freed memory. *)
val not_freed : string

(** Address lies inside some allocation, live or freed — a purely spatial
    check (SoftBound-style), blind to temporal errors. *)
val in_alloc : string

(** Slot at address has been initialised. *)
val init_ok : string

(** Signed addition does not overflow. *)
val add_ok : string

(** Signed multiplication does not overflow. *)
val mul_ok : string

(** Shift amount is in range. *)
val shift_ok : string

(** Value is the address of an actual function entry point (CFI-style
    indirect-call target check). *)
val code_ptr_ok : string

(** All of the check helpers above, for membership tests (e.g. the
    interpreter's per-variant check-hit counters). *)
val helpers : string list

(** The stack-cookie canary value stored below the return context. *)
val canary_value : int64

(** Known report-handler name prefixes ([__asan_report_], ...).  A call to
    any of these is the second sink-point criterion of check discovery. *)
val report_prefixes : string list

val is_report_handler : string -> bool

(** Every runtime function the interpreter implements (including report
    handlers and modelled syscalls). *)
val is_intrinsic : string -> bool
