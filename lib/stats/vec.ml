type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length t = t.len

let push t x =
  if t.len = Array.length t.data then begin
    (* The pushed element doubles as the fill value, so no dummy is needed
       and the array never holds values the caller did not supply. *)
    let bigger = Array.make (Int.max 16 (2 * t.len)) x in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let to_array t = Array.sub t.data 0 t.len

