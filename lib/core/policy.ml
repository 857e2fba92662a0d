module Pieceset = P2p_pieceset.Pieceset
module Rng = P2p_prng.Rng

type uploader = Fixed_seed | Peer of Pieceset.t

let uploader_pieces ~k = function Fixed_seed -> Pieceset.full ~k | Peer c -> c

let useful_pieces ~k ~uploader ~downloader =
  Pieceset.diff (uploader_pieces ~k uploader) downloader

type t = {
  name : string;
  distribution :
    k:int -> state:State.t -> uploader:uploader -> downloader:Pieceset.t -> (int * float) list;
  sample_fast :
    rng:Rng.t ->
    k:int ->
    state:State.t ->
    uploader:uploader ->
    downloader:Pieceset.t ->
    int option;
}

let uniform_over pieces =
  let elems = Pieceset.elements pieces in
  let p = 1.0 /. float_of_int (List.length elems) in
  List.map (fun i -> (i, p)) elems

(* Generic sampler walking the spec distribution: the fallback for exotic
   policies defined only by [distribution]. *)
let sample_distribution distribution ~rng ~k ~state ~uploader ~downloader =
  if Pieceset.is_empty (useful_pieces ~k ~uploader ~downloader) then None
  else begin
    let dist = distribution ~k ~state ~uploader ~downloader in
    match dist with
    | [] -> None
    | [ (i, _) ] -> Some i
    | dist ->
        let weights = Array.of_list (List.map snd dist) in
        let idx = P2p_prng.Dist.categorical rng ~weights in
        Some (fst (List.nth dist idx))
  end

let of_distribution ~name distribution =
  { name; distribution; sample_fast = sample_distribution distribution }

let random_useful =
  {
    name = "random-useful";
    distribution =
      (fun ~k ~state:_ ~uploader ~downloader ->
        uniform_over (useful_pieces ~k ~uploader ~downloader));
    sample_fast =
      (* Uniform over the useful bitset directly: one bounded draw, no
         list, no weight array.  [Rng.int_below rng 1] consumes no
         randomness, so the single-choice case stays draw-free. *)
      (fun ~rng ~k ~state:_ ~uploader ~downloader ->
        let useful = useful_pieces ~k ~uploader ~downloader in
        let n = Pieceset.cardinal useful in
        if n = 0 then None else Some (Pieceset.nth_element useful (Rng.int_below rng n)));
  }

(* Uniform over the pieces of [useful] (nonempty) whose [copies] count is
   the least (resp. greatest): two allocation-free passes over the bitset
   find the extreme count and collect the tied pieces, then one bounded
   draw picks among them. *)
let pick_extreme ~prefer_rare ~rng ~copies useful =
  let rec extreme c b =
    if Pieceset.is_empty c then b
    else
      let i = Pieceset.lowest c in
      let n = copies i in
      extreme (Pieceset.remove i c) (if prefer_rare then Int.min b n else Int.max b n)
  in
  let b = extreme useful (if prefer_rare then max_int else min_int) in
  let rec ties c acc =
    if Pieceset.is_empty c then acc
    else
      let i = Pieceset.lowest c in
      ties (Pieceset.remove i c) (if copies i = b then Pieceset.add i acc else acc)
  in
  let tied = ties useful Pieceset.empty in
  Pieceset.nth_element tied (Rng.int_below rng (Pieceset.cardinal tied))

let rarest ~rng ~copies useful = pick_extreme ~prefer_rare:true ~rng ~copies useful

(* Uniform over the useful pieces minimising (resp. maximising) the global
   copy count. *)
let by_rarity ~name ~prefer_rare =
  {
    name;
    distribution =
      (fun ~k ~state ~uploader ~downloader ->
        let useful = useful_pieces ~k ~uploader ~downloader in
        let copies = State.piece_count_vector state ~k in
        let best =
          Pieceset.fold
            (fun i acc ->
              match acc with
              | None -> Some copies.(i)
              | Some b ->
                  if (prefer_rare && copies.(i) < b) || ((not prefer_rare) && copies.(i) > b)
                  then Some copies.(i)
                  else acc)
            useful None
        in
        match best with
        | None -> invalid_arg "Policy: no useful piece"
        | Some b ->
            let chosen = Pieceset.fold (fun i acc -> if copies.(i) = b then Pieceset.add i acc else acc) useful Pieceset.empty in
            uniform_over chosen);
    sample_fast =
      (* Against the state's O(1) incremental copy counts. *)
      (fun ~rng ~k ~state ~uploader ~downloader ->
        let useful = useful_pieces ~k ~uploader ~downloader in
        if Pieceset.is_empty useful then None
        else
          Some
            (pick_extreme ~prefer_rare ~rng
               ~copies:(fun piece -> State.piece_copies state ~k ~piece)
               useful));
  }

let rarest_first = by_rarity ~name:"rarest-first" ~prefer_rare:true
let most_common_first = by_rarity ~name:"most-common-first" ~prefer_rare:false

let sequential =
  {
    name = "sequential";
    distribution =
      (fun ~k ~state:_ ~uploader ~downloader ->
        let useful = useful_pieces ~k ~uploader ~downloader in
        [ (Pieceset.lowest useful, 1.0) ]);
    sample_fast =
      (fun ~rng:_ ~k ~state:_ ~uploader ~downloader ->
        let useful = useful_pieces ~k ~uploader ~downloader in
        if Pieceset.is_empty useful then None else Some (Pieceset.lowest useful));
  }

let sample t ~rng ~k ~state ~uploader ~downloader =
  t.sample_fast ~rng ~k ~state ~uploader ~downloader

let sample_spec t ~rng ~k ~state ~uploader ~downloader =
  sample_distribution t.distribution ~rng ~k ~state ~uploader ~downloader

let validate_distribution dist ~useful =
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 dist in
  let supported = List.for_all (fun (i, p) -> p >= 0.0 && Pieceset.mem i useful) dist in
  supported && Float.abs (total -. 1.0) < 1e-9
