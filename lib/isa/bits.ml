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

(* Lowest set bit by de Bruijn multiplication: for a power of two [b]
   below [2^32], bits 27..31 of [b * debruijn32] are distinct for every
   exponent, so one multiply and one table read name it. The high half of
   a 63-bit word takes a second, shifted lookup. The product stays below
   [2^59], so OCaml's 63-bit ints never wrap it. *)
let debruijn32 = 0x077C_B531

let debruijn_index =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13;
     23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let lsb m =
  let b = m land -m in
  if b <= 0 then invalid_arg "Bits.lsb: argument must have a set bit below the sign";
  if b land 0xFFFF_FFFF <> 0 then debruijn_index.(((b * debruijn32) lsr 27) land 31)
  else 32 + debruijn_index.((((b lsr 32) * debruijn32) lsr 27) land 31)
