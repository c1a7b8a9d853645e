(** Paged shadow memory for the interpreter fast path.

    The reference interpreter keeps one hashtable entry per mapped address
    ([cells] for values, [region] for classification), which makes every
    load, store and allocation hash — and makes [malloc n] perform [n]
    [Hashtbl.replace]s.  This module replaces both tables with chunked
    planes, the way ASan's flat shadow works (one metadata byte per
    application byte at a fixed stride): a page table indexed by
    [addr lsr page_bits], where each present page carries

    - a {b tag byte} per slot classifying the region
      ([tag_unmapped] / [tag_live] / [tag_redzone]);
    - an {b owner id} per slot pointing at the allocation record covering
      it (so use-after-free checks read one mutable flag, and [free] can
      validate that its argument is an allocation base);
    - an {b init byte} per slot holding the {e kind} of the value last
      stored there ([Precompile.k_int], [k_ptr], ...), ['\000'] if the
      slot was never stored to in this run;
    - a {b payload plane}: the stored value's 64-bit payload, 8 bytes per
      slot, read and written unboxed.

    Lookups never allocate and never fault: addresses outside every page
    (including negative ones) resolve to the [empty] page, so the
    interpreter's wild-pointer path needs no bounds check of its own.
    Pages are materialised only by {!map_range}, i.e. only for address
    ranges an allocation actually covers, as ASan's shadow is backed only
    where it is touched.

    {b Contract: tag before [owner]/[payload]/[init]; init before
    [payload].}  The [empty] page is one module-level value shared by
    every instance: its [tags] and [init] are the same all-[tag_unmapped]
    string and its [owner] and [payload] are zero-length.  A caller must
    read the slot's tag first and touch [owner], [payload] or [init] only
    when the tag is not [tag_unmapped]: indexing [owner]/[payload] of the
    empty page is out of bounds, and a write to its [init] would change
    the tags and init bytes that every other instance sees.  Likewise the
    payload of a slot whose init byte is ['\000'] is garbage left by an
    earlier run: read the init byte first.

    {b Reuse.}  A shadow belongs to one run arena ({!Precompile.arena})
    and serves every run of it.  Within one run the interpreter never
    reuses an address, so a freshly mapped range reads as never stored.
    Across runs addresses {e are} reused: {!reset} clears the tag and init
    bytes of every page the run mapped and recycles them, which restores
    that guarantee for the next run. *)

val page_bits : int
val page_slots : int

val page_mask : int
(** [addr land page_mask] is the slot offset within its page. *)

val tag_unmapped : char
(** No allocation or redzone covers the slot — dereference is a wild
    pointer.  This is the tag of every slot of a fresh page (and of the
    shared empty page), so tag [0] doubles as "page absent". *)

val tag_live : char
(** Slot lies inside an allocation; its temporal state (live vs freed) is
    the owner record's business, so [free] stays O(1). *)

val tag_redzone : char
(** Slot lies in the redzone after an allocation. *)

type page = {
  tags : Bytes.t;     (** region tag per slot *)
  owner : int array;  (** allocation id per slot; [-1] where no owner *)
  init : Bytes.t;     (** kind of the stored value per slot; ['\000'] = never stored *)
  payload : Bytes.t;  (** 64-bit payload per slot, at byte offset [8 * slot] *)
}

type t

val create : unit -> t
(** An empty shadow: every address unmapped, no page allocated. *)

val page_of : t -> int -> page
(** Total: the page covering the address, or the shared empty page (all
    tags [tag_unmapped], no [owner]/[payload] slots) when none is mapped.
    Callers must check the tag before touching [payload]/[init]/[owner] —
    see the contract above. *)

val map_range : t -> base:int -> len:int -> tag:char -> owner:int -> unit
(** Tag [len] slots starting at [base] (materialising pages as needed)
    and record their owner.  A page materialised since the last {!reset}
    starts all-unmapped and never stored.  [base] must be non-negative;
    [len = 0] is a no-op. *)

val max_pooled_pages : int
(** Pages {!reset} keeps for reuse; the rest are dropped. *)

val reset : t -> unit
(** Unmap everything: clear the tag and init bytes of each page mapped
    since the last reset and keep up to {!max_pooled_pages} of them for
    the next run, and shrink a page table grown past its initial size.
    Afterwards every address is unmapped and never stored, and the
    memory retained is bounded by a constant, whatever the last run
    mapped. *)

val retained_pages : t -> int
(** Pages currently held: mapped since the last {!reset}, or pooled. *)
