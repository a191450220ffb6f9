(* Compressed-sparse-column matrices, functorised over an ordered field.

   This is the storage layer of the revised simplex: the constraint
   matrix is read column-wise both by pricing (reduced-cost dot products
   against the dual vector) and by the LU factorisation of the basis, so
   CSC is the natural layout.  The structure is deliberately minimal —
   build, read columns, map values — and carries no numerics beyond what
   construction needs: triangular solves belong to {!Lu}, where the
   permutations live.

   The record itself is polymorphic in the value type so the exact
   rational certification path can receive the float path's matrix by a
   structure-preserving [map_values] (sharing the index arrays) instead
   of a dense detour. *)

type 'v repr = {
  rows : int;
  cols : int;
  colptr : int array;  (* length cols + 1 *)
  rowind : int array;  (* length nnz, row index of each entry *)
  values : 'v array;  (* length nnz, parallel to rowind *)
}

let map_values f t = { t with values = Array.map f t.values }

module Make (F : Mf_numeric.Ordered_field.S) = struct
  type t = F.t repr

  let rows (t : t) = t.rows
  let cols (t : t) = t.cols

  let iter_col (t : t) j f =
    if j < 0 || j >= t.cols then invalid_arg "Sparse.iter_col: column out of range";
    for k = t.colptr.(j) to t.colptr.(j + 1) - 1 do
      f t.rowind.(k) t.values.(k)
    done

  (* Entries are kept in the order the builder received them; nothing in
     the solver requires sorted row indices within a column, only that
     each (row, col) pair appears at most once — checked here. *)
  let of_columns ~rows ~cols columns : t =
    if Array.length columns <> cols then invalid_arg "Sparse.of_columns: column count";
    let colptr = Array.make (cols + 1) 0 in
    let total = ref 0 in
    Array.iteri
      (fun j entries ->
        colptr.(j) <- !total;
        List.iter
          (fun (i, _) ->
            if i < 0 || i >= rows then invalid_arg "Sparse.of_columns: row out of range";
            incr total)
          entries)
      columns;
    colptr.(cols) <- !total;
    let rowind = Array.make !total 0 in
    let values = Array.make !total F.zero in
    let seen = Array.make rows (-1) in
    Array.iteri
      (fun j entries ->
        let k = ref colptr.(j) in
        List.iter
          (fun (i, v) ->
            if seen.(i) = j then invalid_arg "Sparse.of_columns: duplicate entry";
            seen.(i) <- j;
            rowind.(!k) <- i;
            values.(!k) <- v;
            incr k)
          entries)
      columns;
    { rows; cols; colptr; rowind; values }

  (* Dense [rows x cols] row-major input; exact zeros are dropped.  Used
     by the dense-input entry points of {!Simplex} and by tests — the
     large-instance paths build columns directly. *)
  let of_dense a ~cols : t =
    let rows = Array.length a in
    Array.iter
      (fun r -> if Array.length r < cols then invalid_arg "Sparse.of_dense: short row")
      a;
    let colptr = Array.make (cols + 1) 0 in
    let total = ref 0 in
    for j = 0 to cols - 1 do
      colptr.(j) <- !total;
      for i = 0 to rows - 1 do
        if F.compare a.(i).(j) F.zero <> 0 then incr total
      done
    done;
    colptr.(cols) <- !total;
    let rowind = Array.make !total 0 in
    let values = Array.make !total F.zero in
    let k = ref 0 in
    for j = 0 to cols - 1 do
      for i = 0 to rows - 1 do
        if F.compare a.(i).(j) F.zero <> 0 then begin
          rowind.(!k) <- i;
          values.(!k) <- a.(i).(j);
          incr k
        end
      done
    done;
    { rows; cols; colptr; rowind; values }
end
