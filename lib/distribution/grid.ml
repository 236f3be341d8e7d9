type t = {
  dims : int array;
  size : int;
}

let make dims =
  if Array.length dims = 0 then invalid_arg "Grid.make: empty dimension vector";
  Array.iter
    (fun d -> if d < 1 then invalid_arg "Grid.make: dimensions must be >= 1")
    dims;
  { dims; size = Array.fold_left ( * ) 1 dims }

let size t = t.size
let dims t = Array.copy t.dims

let encode t coord =
  if Array.length coord <> Array.length t.dims then
    invalid_arg "Grid.encode: wrong coordinate dimension";
  let node = ref 0 in
  Array.iteri
    (fun i c ->
      if c < 0 || c >= t.dims.(i) then
        invalid_arg "Grid.encode: coordinate out of range";
      node := (!node * t.dims.(i)) + c)
    coord;
  !node

let decode t node =
  if node < 0 || node >= t.size then invalid_arg "Grid.decode: node out of range";
  let coord = Array.make (Array.length t.dims) 0 in
  let rest = ref node in
  for i = Array.length t.dims - 1 downto 0 do
    coord.(i) <- !rest mod t.dims.(i);
    rest := !rest / t.dims.(i)
  done;
  coord

(* Enumerate all nodes matching a partial coordinate: fixed positions
   pinned, [None] positions free. The row-major index is carried down
   the recursion, so nodes come out in ascending order. *)
let matching t partial f =
  if Array.length partial <> Array.length t.dims then
    invalid_arg "Grid.matching: wrong coordinate dimension";
  Array.iteri
    (fun i c ->
      match c with
      | Some c when c < 0 || c >= t.dims.(i) ->
        invalid_arg "Grid.matching: coordinate out of range"
      | _ -> ())
    partial;
  let n = Array.length t.dims in
  let rec go i node =
    if i >= n then f node
    else
      let base = node * t.dims.(i) in
      match partial.(i) with
      | Some c -> go (i + 1) (base + c)
      | None ->
        for c = 0 to t.dims.(i) - 1 do
          go (i + 1) (base + c)
        done
  in
  go 0 0
