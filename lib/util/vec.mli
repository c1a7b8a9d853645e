(** Growable array (OCaml 5.1 has no stdlib Dynarray yet). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
(** @raise Invalid_argument on out-of-range index. *)
