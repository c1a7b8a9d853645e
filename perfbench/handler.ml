(* The ir_serve request handler, in the IR text format: read a request,
   fill a buffer from the input, checksum it, update a lookup table,
   render a reply, write it.  Loads and stores draw ASan and UBSan-null
   checks, the arithmetic draws overflow, shift and division checks, and
   the loop count (8 + input mod 24) varies service time per request.
   Five functions give the partitioner something to split. *)

let source =
  {|; module request_handler
@table = global [64]

define @fill(%buf, %n, %x) {
entry:
  br %loop
loop:
  %i = phi [0, %entry], [%i2, %loop]
  %a = mul %x, 31
  %b = mul %i, 7
  %v = add %a, %b
  %p = gep %buf, %i
  store %v, %p
  %i2 = add %i, 1
  %c = icmp slt %i2, %n
  condbr %c, %loop, %done
done:
  ret %n
}

define @checksum(%buf, %n) {
entry:
  br %loop
loop:
  %i = phi [0, %entry], [%i2, %loop]
  %acc = phi [0, %entry], [%acc2, %loop]
  %p = gep %buf, %i
  %v = load %p
  %acc2 = add %acc, %v
  %i2 = add %i, 1
  %c = icmp slt %i2, %n
  condbr %c, %loop, %done
done:
  ret %acc2
}

define @lookup(%key) {
entry:
  %idx = srem %key, 64
  %p = gep @table, %idx
  %v = load %p
  %v2 = add %v, 1
  store %v2, %p
  ret %v2
}

define @render(%out, %n, %h) {
entry:
  br %loop
loop:
  %i = phi [0, %entry], [%i2, %loop]
  %s = shl %i, 3
  %v = xor %h, %s
  %p = gep %out, %i
  store %v, %p
  %i2 = add %i, 1
  %c = icmp slt %i2, %n
  condbr %c, %loop, %done
done:
  ret %n
}

define @main(%x) {
entry:
  call @sys_read(0, 64)
  %n0 = srem %x, 24
  %n = add %n0, 8
  %buf = call @malloc(32)
  %out = call @malloc(32)
  %f = call @fill(%buf, %n, %x)
  %h = call @checksum(%buf, %n)
  %t = call @lookup(%h)
  %r = call @render(%out, %n, %t)
  call @free(%buf)
  call @free(%out)
  call @print(%t)
  call @sys_write(1, %h)
  ret %h
}
|}
