(* Uniform-grid spatial index, int-keyed.

   The hot consumer is the placement overlap term: one entry per cell
   (keyed by cell index), moved millions of times over an anneal.  The
   structure is tuned for that traffic pattern:

   - keys are small non-negative ints, so per-key state (current
     rectangle, presence, query stamp) lives in flat arrays that grow
     geometrically — no hashing, no polymorphic equality anywhere;
   - [query]/[query_into] deduplicate multi-bin entries with a
     monotonically increasing stamp per call against a per-key stamp
     array, and [query_into] fills a caller's buffer: no closures and
     no result list on the move-evaluation path;
   - [update] diffs the old and new bin ranges of a moved rectangle and
     touches only the bins in the symmetric difference — a short move
     that stays within its bins is O(1). *)

type t = {
  world : Rect.t;
  cell_size : int;
  nx : int;
  ny : int;
  bins : int list array;
  mutable rects : Rect.t array;  (* key -> current rectangle *)
  mutable present : bool array;
  mutable seen : int array;  (* key -> stamp of the query that last saw it *)
  mutable stamp : int;
  mutable count : int;
}

let create ~world ~cell_size =
  if cell_size <= 0 then invalid_arg "Spatial.create: cell_size <= 0";
  if Rect.is_empty world then invalid_arg "Spatial.create: empty world";
  let nx = max 1 ((Rect.width world + cell_size - 1) / cell_size)
  and ny = max 1 ((Rect.height world + cell_size - 1) / cell_size) in
  { world;
    cell_size;
    nx;
    ny;
    bins = Array.make (nx * ny) [];
    rects = Array.make 16 Rect.empty;
    present = Array.make 16 false;
    seen = Array.make 16 0;
    stamp = 0;
    count = 0 }

let clamp lo hi v = max lo (min hi v)

(* Inclusive bin-index ranges covered by a rectangle, clamped into the grid.
   The high edges use [x1]/[y1] themselves (not minus one) so that touching
   rectangles always share a bin. *)
let bin_range t (r : Rect.t) =
  let ix0 = clamp 0 (t.nx - 1) ((r.Rect.x0 - t.world.Rect.x0) / t.cell_size)
  and ix1 = clamp 0 (t.nx - 1) ((r.Rect.x1 - t.world.Rect.x0) / t.cell_size)
  and iy0 = clamp 0 (t.ny - 1) ((r.Rect.y0 - t.world.Rect.y0) / t.cell_size)
  and iy1 = clamp 0 (t.ny - 1) ((r.Rect.y1 - t.world.Rect.y0) / t.cell_size) in
  (ix0, ix1, iy0, iy1)

let grow t key =
  let n = Array.length t.rects in
  if key >= n then begin
    let n' = max (key + 1) (2 * n) in
    let rects = Array.make n' Rect.empty
    and present = Array.make n' false
    and seen = Array.make n' 0 in
    Array.blit t.rects 0 rects 0 n;
    Array.blit t.present 0 present 0 n;
    Array.blit t.seen 0 seen 0 n;
    t.rects <- rects;
    t.present <- present;
    t.seen <- seen
  end

let add_to_bins t key (ix0, ix1, iy0, iy1) =
  for iy = iy0 to iy1 do
    for ix = ix0 to ix1 do
      let i = (iy * t.nx) + ix in
      t.bins.(i) <- key :: t.bins.(i)
    done
  done

let drop_from_bin t key i =
  let rec drop = function
    | [] -> invalid_arg "Spatial: key missing from its bin"
    | k :: rest -> if k = key then rest else k :: drop rest
  in
  t.bins.(i) <- drop t.bins.(i)

let remove_from_bins t key (ix0, ix1, iy0, iy1) =
  for iy = iy0 to iy1 do
    for ix = ix0 to ix1 do
      drop_from_bin t key ((iy * t.nx) + ix)
    done
  done

let insert t key rect =
  if key < 0 then invalid_arg "Spatial.insert: negative key";
  grow t key;
  if t.present.(key) then invalid_arg "Spatial.insert: key already present";
  t.present.(key) <- true;
  t.rects.(key) <- rect;
  add_to_bins t key (bin_range t rect);
  t.count <- t.count + 1

let remove t key =
  if key < 0 || key >= Array.length t.present || not t.present.(key) then
    invalid_arg "Spatial.remove: key not present";
  remove_from_bins t key (bin_range t t.rects.(key));
  t.present.(key) <- false;
  t.rects.(key) <- Rect.empty;
  t.count <- t.count - 1

let ranges_equal (a0, a1, b0, b1) (c0, c1, d0, d1) =
  a0 = c0 && a1 = c1 && b0 = d0 && b1 = d1

let update t key rect =
  if key < 0 || key >= Array.length t.present || not t.present.(key) then
    invalid_arg "Spatial.update: key not present";
  let old_range = bin_range t t.rects.(key)
  and new_range = bin_range t rect in
  t.rects.(key) <- rect;
  if not (ranges_equal old_range new_range) then begin
    (* Touch only the symmetric difference of the two bin ranges. *)
    let ox0, ox1, oy0, oy1 = old_range and nx0, nx1, ny0, ny1 = new_range in
    for iy = oy0 to oy1 do
      for ix = ox0 to ox1 do
        if not (ix >= nx0 && ix <= nx1 && iy >= ny0 && iy <= ny1) then
          drop_from_bin t key ((iy * t.nx) + ix)
      done
    done;
    for iy = ny0 to ny1 do
      for ix = nx0 to nx1 do
        if not (ix >= ox0 && ix <= ox1 && iy >= oy0 && iy <= oy1) then
          let i = (iy * t.nx) + ix in
          t.bins.(i) <- key :: t.bins.(i)
      done
    done
  end

let mem t key = key >= 0 && key < Array.length t.present && t.present.(key)

let rect_of t key =
  if not (mem t key) then invalid_arg "Spatial.rect_of: key not present";
  t.rects.(key)

let next_stamp t =
  (* Wraparound safety: re-zero the stamp array on the (never in practice)
     overflow of the monotonic counter. *)
  if t.stamp = max_int then begin
    Array.fill t.seen 0 (Array.length t.seen) 0;
    t.stamp <- 0
  end;
  t.stamp <- t.stamp + 1;
  t.stamp

(* Accumulator-passing walk of one bin: no closure per bin. *)
let rec collect_bin t rect stamp buf n = function
  | [] -> n
  | key :: rest ->
      if t.seen.(key) <> stamp then begin
        t.seen.(key) <- stamp;
        if Rect.touches t.rects.(key) rect then begin
          buf.(n) <- key;
          collect_bin t rect stamp buf (n + 1) rest
        end
        else collect_bin t rect stamp buf n rest
      end
      else collect_bin t rect stamp buf n rest

let query_into t rect buf =
  let stamp = next_stamp t in
  let ix0, ix1, iy0, iy1 = bin_range t rect in
  let n = ref 0 in
  for iy = iy0 to iy1 do
    for ix = ix0 to ix1 do
      n := collect_bin t rect stamp buf !n t.bins.((iy * t.nx) + ix)
    done
  done;
  !n

let query t rect =
  let buf = Array.make (Array.length t.present) 0 in
  let n = query_into t rect buf in
  Array.to_list (Array.sub buf 0 n)

(* The owner bin of a touching pair is the smallest-index bin common to both
   rectangles' bin ranges; reporting the pair only from its owner makes
   [iter_pairs] visit each pair exactly once. *)
let owner_bin t a b =
  let ax0, ax1, ay0, ay1 = bin_range t a and bx0, bx1, by0, by1 = bin_range t b in
  let ix = max ax0 bx0 and iy = max ay0 by0 in
  assert (ix <= min ax1 bx1 && iy <= min ay1 by1);
  (iy * t.nx) + ix

let iter_pairs t f =
  Array.iteri
    (fun bin keys ->
      let rec go = function
        | [] -> ()
        | k :: rest ->
            let rk = t.rects.(k) in
            List.iter
              (fun k' ->
                let rk' = t.rects.(k') in
                if Rect.touches rk rk' && owner_bin t rk rk' = bin then
                  f k rk k' rk')
              rest;
            go rest
      in
      go keys)
    t.bins

let length t = t.count
