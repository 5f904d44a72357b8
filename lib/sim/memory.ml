(* Global memory is keyed by masked addresses. A table specialised to
   int keys hashes and compares without the polymorphic primitives, which
   a per-lane (--simt) load or store pays once per lane. *)
module Table = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* Multiplicative mixing with an xor-shift fold, so consecutive
     addresses spread over the low bits that pick a bucket. *)
  let hash a =
    let h = a * 0x1E3779B97F4A7C15 in
    (h lxor (h lsr 32)) land max_int
end)

type t = { global : int Table.t }

let create () = { global = Table.create 4096 }

let mask addr = addr land 0x3fffffff

(* Knuth multiplicative hash with an xor-shift finaliser: the shift folds
   high bits into the low ones so low-bit tests (parity, small masks) vary
   across addresses too. Stable pseudo-random contents for unwritten
   addresses. *)
let default_value addr =
  let v = mask addr * 2654435761 in
  (v lxor (v lsr 15)) land 0xffff

(* [find] rather than [find_opt]: the miss path raises the preallocated
   [Not_found] instead of the hit path allocating an option. *)
let read_global t addr =
  let addr = mask addr in
  match Table.find t.global addr with
  | v -> v
  | exception Not_found -> default_value addr

let write_global t addr v = Table.replace t.global (mask addr) v

let footprint t = Table.length t.global

let written t =
  Table.fold (fun addr v acc -> (addr, v) :: acc) t.global []
  |> List.sort compare
