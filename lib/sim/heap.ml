type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }
let length t = t.size

let grow t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.size;
    t.data <- ndata
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.cmp t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.size && t.cmp t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t x =
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let top_or t ~default = if t.size = 0 then default else t.data.(0)

(* Fill slot [i] with the last element and restore the heap property
   around it: it may need to move either way. *)
let remove_at t i =
  t.size <- t.size - 1;
  if i < t.size then begin
    t.data.(i) <- t.data.(t.size);
    sift_down t i;
    sift_up t i
  end

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.data.(0) in
    remove_at t 0;
    Some top
  end

let remove_top t = if t.size > 0 then remove_at t 0

let replace_top t x =
  if t.size = 0 then push t x
  else begin
    t.data.(0) <- x;
    sift_down t 0
  end

let remove_first t p =
  let rec find i =
    if i < t.size then if p t.data.(i) then remove_at t i else find (i + 1)
  in
  find 0

let fold f init t =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc
