(* K-Means clustering (paper Algorithms 7/15). The distance computation
   D = rowSums(T²)·1 + 1·colSums(C²) − 2·T·C is vectorized exactly as in
   the paper, so the factorized instantiation exercises the element-wise
   exponentiation, aggregation, and LMM/transposed-LMM rewrites —
   full matrix-matrix multiplications, "a key benefit of the generality
   of our approach" (§4). *)

open La

module Make (M : Morpheus.Data_matrix.S) = struct
  type result = {
    centroids : Dense.t; (* d×k *)
    assignments : int array; (* cluster id per row of T *)
    objective : float; (* sum of squared distances to assigned centroid *)
  }

  (* Initialize centroids from the data deterministically: spread k seed
     rows of T across the row range. [select_rows] keeps the extraction
     factorized, with R compacted to the k referenced rows, so it costs
     O(k·d + n_R) instead of the dense n×k one-hot selector's O(n·d·k);
     the k×k identity converts the k selected rows to a d×k dense
     column block through the signature. *)
  let init_centroids t k =
    let n = M.rows t in
    let idx = Array.init k (fun j -> j * (n / k)) in
    M.tlmm (M.select_rows t idx) (Dense.identity k)

  (* Extract row [i] of T as a d×1 column through the signature. *)
  let row_of t i = M.tlmm (M.select_rows t [| i |]) (Dense.make 1 1 1.0)

  (* K-Means++ seeding (Arthur & Vassilvitskii): each next centroid is
     sampled ∝ squared distance to the nearest chosen one. Distances are
     computed with the same vectorized identity as the training loop, so
     the whole procedure runs factorized on normalized inputs. *)
  let init_plus_plus ?(rng = Rng.of_int 0) t k =
    let n = M.rows t in
    (* rowSums(T²) through the factorized rewrite — no T² materialized,
       and memoized on t, so training right after seeding reuses it. *)
    let dt = M.row_sums_sq t in
    (* the 2·(T·C) form: doubling after the multiply is exact in floating
       point, so no scaled copy 2T of the matrix is ever built *)
    let chosen = ref [ row_of t (Rng.int rng n) ] in
    while List.length !chosen < k do
      let c = List.hd !chosen in
      (* squared distance of every point to the latest centroid *)
      let c2 = Dense.sum (Dense.pow_scalar c 2.0) in
      let tc = M.lmm t c in
      let d2 =
        Dense.init n 1 (fun i _ ->
            Float.max 0.0
              (Dense.get dt i 0 +. c2 -. (2.0 *. Dense.get tc i 0)))
      in
      (* running minimum across all chosen centroids *)
      let min_d2 =
        match !chosen with
        | [ _ ] -> d2
        | _ ->
          (* recompute against all chosen: keep it simple and exact *)
          let all = Dense.hcat (List.map Fun.id !chosen) in
          let c2s = Dense.col_sums (Dense.pow_scalar all 2.0) in
          let tcs = M.lmm t all in
          Dense.init n 1 (fun i _ ->
              let best = ref infinity in
              for j = 0 to Dense.cols all - 1 do
                let v =
                  Dense.get dt i 0 +. Dense.get c2s 0 j
                  -. (2.0 *. Dense.get tcs i j)
                in
                if v < !best then best := v
              done ;
              Float.max 0.0 !best)
      in
      (* sample ∝ min_d2 *)
      let total = Dense.sum min_d2 in
      let next =
        if total <= 0.0 then Rng.int rng n
        else begin
          let target = Rng.float rng *. total in
          let acc = ref 0.0 and pick = ref (n - 1) in
          (try
             for i = 0 to n - 1 do
               acc := !acc +. Dense.get min_d2 i 0 ;
               if !acc >= target then begin
                 pick := i ;
                 raise Exit
               end
             done
           with Exit -> ()) ;
          !pick
        end
      in
      chosen := row_of t next :: !chosen
    done ;
    Dense.hcat (List.rev !chosen)

  (* The distance fill shared by training and serving: writes the n×k
     pairwise squared distances rowSums(T²)·1 + 1·colSums(C²) − 2·T·C
     into [d]. One code path keeps assignment bitwise-identical whether
     a row is scored inside [train], alone, or inside a server batch. *)
  let fill_distances t ~dt ~c ~d =
    let n = M.rows t and k = Dense.cols c in
    let c2 = Dense.col_sums (Dense.pow_scalar c 2.0) in
    let tc = M.lmm t c in
    let dd = Dense.data d
    and dtd = Dense.data dt
    and c2d = Dense.data c2
    and tcd = Dense.data tc in
    for i = 0 to n - 1 do
      let base = i * k in
      let dti = Array.unsafe_get dtd i in
      for j = 0 to k - 1 do
        Array.unsafe_set dd (base + j)
          (dti +. Array.unsafe_get c2d j
          -. (2.0 *. Array.unsafe_get tcd (base + j)))
      done
    done

  let distances t c =
    if Dense.rows c <> M.cols t then
      invalid_arg "Kmeans.distances: centroid rows must equal data columns" ;
    let d = Dense.create (M.rows t) (Dense.cols c) in
    fill_distances t ~dt:(M.row_sums_sq t) ~c ~d ;
    d

  let assign t c = Dense.row_argmins (distances t c)

  let train ?(iters = 20) ?centroids ?on_iter ~k t =
    let n = M.rows t in
    let c = ref (match centroids with Some c -> Dense.copy c | None -> init_centroids t k) in
    (* 1. Pre-compute squared l2-norms of the points, rowSums(T²),
       through the factorized rewrite (no T² is materialized). Hoisted
       out of the loop AND memoized on t, so even a later [train] call
       on the same matrix skips it. The 2·T scaling of the paper's
       identity is folded into the distance loop below (doubling after
       the multiply is exact in floating point), so no scaled copy of
       the data matrix is ever built. *)
    let dt = M.row_sums_sq t in
    let assignments = ref [||] in
    let objective = ref 0.0 in
    (* workspaces reused across iterations: distances and the one-hot
       assignment matrix *)
    let d = Dense.create n k in
    let a = Dense.create n k in
    for it = 1 to iters do
      (* 2. Pairwise squared distances D (n×k) =
         rowSums(T²)·1 + 1·colSums(C²) − 2·T·C *)
      fill_distances t ~dt ~c:!c ~d ;
      (* 3. Assign points to the nearest centroid: A (n×k) boolean *)
      let args = Dense.row_argmins d in
      assignments := args ;
      objective := 0.0 ;
      Array.iteri (fun i j -> objective := !objective +. Dense.get d i j) args ;
      Dense.fill a 0.0 ;
      let ad = Dense.data a in
      Array.iteri (fun i j -> Array.unsafe_set ad ((i * k) + j) 1.0) args ;
      (* 4. New centroids: (TᵀA) / counts *)
      let ta = M.tlmm t a in
      let counts = Dense.col_sums a in
      c :=
        Dense.init (M.cols t) k (fun i j ->
            let cnt = Dense.get counts 0 j in
            if cnt > 0.0 then Dense.get ta i j /. cnt else Dense.get !c i j) ;
      Validate.check_array ~stage:"kmeans.step" (Dense.data !c) ;
      (match on_iter with Some f -> f it !c | None -> ())
    done ;
    { centroids = !c; assignments = !assignments; objective = !objective }
end
