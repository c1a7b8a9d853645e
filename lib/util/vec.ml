type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length t = t.len

let push t x =
  if t.len = Array.length t.data then begin
    let cap = max 16 (2 * Array.length t.data) in
    let data = Array.make cap x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let check t i = if i < 0 || i >= t.len then invalid_arg "Vec: index out of range"

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Vec.truncate";
  t.len <- n

let clear t ~keep =
  t.len <- 0;
  if Array.length t.data > keep then t.data <- [||]
