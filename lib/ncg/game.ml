type t = Sum | Max | Alpha of float

let equal a b =
  match (a, b) with
  | Sum, Sum | Max, Max -> true
  | Alpha x, Alpha y -> Float.equal x y
  | (Sum | Max | Alpha _), _ -> false

let basic = function
  | Sum -> Some Usage_cost.Sum
  | Max -> Some Usage_cost.Max
  | Alpha _ -> None

let is_basic g = basic g <> None

(* Shortest decimal form that parses back to exactly the same float, so
   the qcheck round-trip [of_string (to_string g) = Ok g] holds and the
   wire/atlas spelling of an alpha is unique per value. *)
let float_to_string x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let to_string = function
  | Sum -> "sum"
  | Max -> "max"
  | Alpha a -> "alpha:" ^ float_to_string a

let grammar = "expected \"sum\", \"max\", or \"alpha:<non-negative float>\""

let of_string s =
  match s with
  | "sum" -> Ok Sum
  | "max" -> Ok Max
  | _ -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "alpha" -> (
      let payload = String.sub s (i + 1) (String.length s - i - 1) in
      match float_of_string_opt payload with
      | Some a when Float.is_finite a && a >= 0.0 -> Ok (Alpha a)
      | Some _ -> Error (Printf.sprintf "bad alpha %S: %s" payload grammar)
      | None -> Error (Printf.sprintf "unparseable alpha %S: %s" payload grammar))
    | _ -> Error (Printf.sprintf "unknown game %S: %s" s grammar))

let pp ppf g = Format.pp_print_string ppf (to_string g)

let social_cost game g =
  match game with
  | Sum | Max ->
    let v = match game with Sum -> Usage_cost.Sum | _ -> Usage_cost.Max in
    let c = Usage_cost.social_cost v g in
    if Usage_cost.is_infinite c then infinity else float_of_int c
  | Alpha a ->
    let dist = Usage_cost.social_cost Usage_cost.Sum g in
    if Usage_cost.is_infinite dist then infinity
    else (a *. float_of_int (Graph.m g)) +. float_of_int dist
