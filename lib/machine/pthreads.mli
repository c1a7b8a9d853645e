(** Pthread-style mutexes and barriers simulated over {!Machine} fibers.

    One instance models the lock namespace of a single process.  Used by
    the plain trace executor and by the NXE (which layers weak-determinism
    ordering on top, §3.3/§4.2). *)

type t

val create : unit -> t
(** An empty namespace; its lock and barrier tables are allocated by the
    first {!lock} or {!barrier}. *)

val lock : Machine.t -> t -> int -> unit
(** Acquire mutex [id] (created on first use), blocking while held. *)

val unlock : Machine.t -> t -> int -> unit
(** Release mutex [id] and wake one waiter. *)

val barrier : Machine.t -> t -> int -> int -> unit
(** [barrier m t id expected]: block until [expected] threads arrive. *)
