(* 256 slots: a page's [owner] and [values] arrays are then exactly
   [Max_young_wosize] words, so every page is allocated in the minor heap
   and a run's shadow costs in proportion to the slots it maps. *)
let page_bits = 8
let page_slots = 1 lsl page_bits
let page_mask = page_slots - 1

let tag_unmapped = '\000'
let tag_live = '\001'
let tag_redzone = '\002'

type 'a page = {
  tags : Bytes.t;
  owner : int array;
  values : 'a array;
  init : Bytes.t;
}

(* The never-mapped page, shared by every instance.  [tags] and [init]
   are one all-[tag_unmapped] string (tag 0 = unmapped, init 0 = never
   stored); [owner]/[values] are empty, since no reader gets past the
   unmapped tag to index them.  Never written: every write is guarded by
   a tag check. *)
let unmapped = Bytes.make page_slots tag_unmapped
let empty = { tags = unmapped; owner = [||]; values = [||]; init = unmapped }

(* 256 entries is the largest minor-heap array and covers addresses up to
   0x10000, past the ~0x9000 a layout-seeded run starts from. *)
let initial_pages = 256

type 'a t = {
  fill : 'a;
  mutable pages : 'a page array;  (* [empty] at never-mapped indices *)
}

let make_page fill =
  {
    tags = Bytes.make page_slots tag_unmapped;
    owner = Array.make page_slots (-1);
    values = Array.make page_slots fill;
    init = Bytes.make page_slots '\000';
  }

let create ~fill = { fill; pages = Array.make initial_pages empty }

let page_of t addr =
  (* [lsr] is a logical shift, so a negative address yields a huge page
     index and falls through to the empty page — no sign check needed. *)
  let pi = addr lsr page_bits in
  if pi >= Array.length t.pages then empty else Array.unsafe_get t.pages pi

let ensure t pi =
  if pi >= Array.length t.pages then begin
    let cap = max (pi + 1) (2 * Array.length t.pages) in
    let pages = Array.make cap empty in
    Array.blit t.pages 0 pages 0 (Array.length t.pages);
    t.pages <- pages
  end;
  let p = t.pages.(pi) in
  if p != empty then p
  else begin
    let p = make_page t.fill in
    t.pages.(pi) <- p;
    p
  end

let map_range t ~base ~len ~tag ~owner =
  if base < 0 then invalid_arg "Shadow.map_range: negative base";
  let pos = ref base and remaining = ref len in
  while !remaining > 0 do
    let off = !pos land page_mask in
    let n = min !remaining (page_slots - off) in
    let p = ensure t (!pos lsr page_bits) in
    Bytes.fill p.tags off n tag;
    Array.fill p.owner off n owner;
    pos := !pos + n;
    remaining := !remaining - n
  done
