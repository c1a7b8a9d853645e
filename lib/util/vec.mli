(** Growable array (OCaml 5.1 has no stdlib Dynarray yet). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
(** @raise Invalid_argument on out-of-range index. *)

val set : 'a t -> int -> 'a -> unit
(** @raise Invalid_argument on out-of-range index. *)

val truncate : 'a t -> int -> unit
(** [truncate t n] keeps the first [n] elements ([0 <= n <= length t]).
    The storage is kept, so the dropped elements stay reachable until
    overwritten.
    @raise Invalid_argument if [n] is out of range. *)

val clear : 'a t -> keep:int -> unit
(** Empty [t].  Its storage is kept for reuse if it holds at most [keep]
    elements and dropped otherwise, so a vector reused across many
    workloads retains memory bounded by [keep], not by the largest one. *)
