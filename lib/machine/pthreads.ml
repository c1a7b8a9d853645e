type lock_state = { mutable held : bool; lq : Machine.Waitq.t }

type barrier_state = { mutable arrived : int; bq : Machine.Waitq.t }

(* Both tables are created on first use: most processes never lock. *)
type t = {
  locks : (int, lock_state) Hashtbl.t Lazy.t;
  barriers : (int, barrier_state) Hashtbl.t Lazy.t;
}

let create () = { locks = lazy (Hashtbl.create 8); barriers = lazy (Hashtbl.create 4) }

let get_lock t id =
  let locks = Lazy.force t.locks in
  match Hashtbl.find_opt locks id with
  | Some l -> l
  | None ->
    let l = { held = false; lq = Machine.Waitq.create () } in
    Hashtbl.replace locks id l;
    l

let get_barrier t id =
  let barriers = Lazy.force t.barriers in
  match Hashtbl.find_opt barriers id with
  | Some b -> b
  | None ->
    let b = { arrived = 0; bq = Machine.Waitq.create () } in
    Hashtbl.replace barriers id b;
    b

let lock m t id =
  let l = get_lock t id in
  while l.held do
    Machine.Waitq.wait m l.lq
  done;
  l.held <- true

let unlock m t id =
  let l = get_lock t id in
  l.held <- false;
  Machine.Waitq.signal m l.lq

let barrier m t id expected =
  let b = get_barrier t id in
  b.arrived <- b.arrived + 1;
  if b.arrived >= expected then begin
    b.arrived <- 0;
    Machine.Waitq.broadcast m b.bq
  end
  else Machine.Waitq.wait m b.bq
