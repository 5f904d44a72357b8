let popcount m =
  let c = ref 0 and m = ref m in
  while !m <> 0 do
    m := !m land (!m - 1);
    incr c
  done;
  !c

(* Binary search over halving shift widths: six steps cover 63 bits. *)
let msb m =
  if m <= 0 then invalid_arg "Bits.msb: argument must be positive";
  let m = ref m and r = ref 0 in
  if !m lsr 32 <> 0 then (m := !m lsr 32; r := !r + 32);
  if !m lsr 16 <> 0 then (m := !m lsr 16; r := !r + 16);
  if !m lsr 8 <> 0 then (m := !m lsr 8; r := !r + 8);
  if !m lsr 4 <> 0 then (m := !m lsr 4; r := !r + 4);
  if !m lsr 2 <> 0 then (m := !m lsr 2; r := !r + 2);
  if !m lsr 1 <> 0 then r := !r + 1;
  !r

let lsb m = msb (m land -m)
