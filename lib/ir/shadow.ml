(* 256 slots: a page's [owner] array is exactly [Max_young_wosize] words.
   Its payload plane (2,048 B = 257 words with the header padding) is one
   word over and goes straight to the major heap, which suits a page that
   is allocated once and then recycled by every later run of its arena. *)
let page_bits = 8
let page_slots = 1 lsl page_bits
let page_mask = page_slots - 1

let tag_unmapped = '\000'
let tag_live = '\001'
let tag_redzone = '\002'

type page = {
  tags : Bytes.t;
  owner : int array;
  init : Bytes.t;
  payload : Bytes.t;
}

(* The never-mapped page, shared by every instance.  [tags] and [init]
   are one all-[tag_unmapped] string (tag 0 = unmapped, init 0 = never
   stored); [owner]/[payload] are empty, since no reader gets past the
   unmapped tag to index them.  Never written: every write is guarded by
   a tag check. *)
let unmapped = Bytes.make page_slots tag_unmapped
let empty = { tags = unmapped; owner = [||]; init = unmapped; payload = Bytes.empty }

(* 256 entries is the largest minor-heap array and covers addresses up to
   0x10000, past the ~0x9000 a layout-seeded run starts from. *)
let initial_pages = 256
let max_pooled_pages = 16

type t = {
  mutable pages : page array;  (* [empty] at never-mapped indices *)
  mutable mapped : int array;  (* indices materialised since the last [reset] *)
  mutable nmapped : int;
  pool : page array;           (* clean pages kept for reuse, [0, npool) *)
  mutable npool : int;
}

let make_page () =
  {
    tags = Bytes.make page_slots tag_unmapped;
    owner = Array.make page_slots (-1);
    init = Bytes.make page_slots '\000';
    payload = Bytes.create (8 * page_slots);
  }

let create () =
  {
    pages = Array.make initial_pages empty;
    mapped = Array.make 16 0;
    nmapped = 0;
    pool = Array.make max_pooled_pages empty;
    npool = 0;
  }

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
    let p =
      if t.npool > 0 then begin
        t.npool <- t.npool - 1;
        let p = t.pool.(t.npool) in
        t.pool.(t.npool) <- empty;
        p
      end
      else make_page ()
    in
    t.pages.(pi) <- p;
    if t.nmapped = Array.length t.mapped then begin
      let m = Array.make (2 * t.nmapped) 0 in
      Array.blit t.mapped 0 m 0 t.nmapped;
      t.mapped <- m
    end;
    t.mapped.(t.nmapped) <- pi;
    t.nmapped <- t.nmapped + 1;
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

let reset t =
  for i = 0 to t.nmapped - 1 do
    let pi = t.mapped.(i) in
    let p = t.pages.(pi) in
    t.pages.(pi) <- empty;
    if t.npool < max_pooled_pages then begin
      Bytes.fill p.tags 0 page_slots tag_unmapped;
      Bytes.fill p.init 0 page_slots '\000';
      t.pool.(t.npool) <- p;
      t.npool <- t.npool + 1
    end
  done;
  t.nmapped <- 0;
  if Array.length t.pages > initial_pages then t.pages <- Array.make initial_pages empty;
  if Array.length t.mapped > 64 then t.mapped <- Array.make 16 0

let retained_pages t = t.npool + t.nmapped
