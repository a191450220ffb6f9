(* Two-phase primal revised simplex over a sparse LU-factorised basis,
   functorised over an ordered field.

   Each pivot costs one BTRAN (duals), one O(nnz) pricing sweep, one
   FTRAN (entering column), an optional BTRAN + sweep for the Devex
   weight update, and a product-form eta append.  The basis is
   refactorised (Markowitz LU, see Lu) when the eta file passes its cap,
   when its accumulated fill overtakes the factor's, or when an eta
   pivot is too small to divide by; the basic solution is recomputed
   from scratch at every refactorisation, which bounds drift.

   Numerical discipline (inexact fields only; exact fields have
   [eps] = [rel_eps] = 0 and every test below degenerates to an exact
   comparison):

   - rows are equilibrated by the power of two nearest their largest
     magnitude, rhs included, so scaled rows live in [-2, 2];
   - every threshold is relative: a value is "zero" against
     [eps + rel_eps * mag], where [mag] is the magnitude of the
     computation that produced it (the sum of the absolute terms of a
     reduced cost, the largest entry of an FTRAN image);
   - pricing is Devex, falling back to Bland's rule when a stall
     detector sees no objective progress over a window of degenerate
     pivots, and returning to Devex as soon as the objective moves
     again.  Bland's rule terminates from any basis and strict
     objective improvements can never revisit a basis, so the
     combination keeps the anti-cycling guarantee while avoiding
     Bland's pathological pivot counts on large degenerate LPs;
   - a pivot budget bounds the whole solve; exhausting it is reported
     as the typed [Stalled] outcome instead of looping forever. *)

(* Raised on NaN/infinite input coefficients, which would otherwise
   silently corrupt the row equilibration and every tolerance after it.
   [row] >= 0 names the offending constraint row ([col = n] meaning its
   right-hand side); [row = -1] is the objective. *)
exception Non_finite of { row : int; col : int }

(* The pricing rule of one phase: cold solves price Devex in both,
   warm starts Devex in phase 1 and Bland in phase 2. *)
type pricing = Devex | Bland

module Make (F : Mf_numeric.Ordered_field.S) = struct
  type outcome =
    | Optimal of F.t array * F.t
    | Infeasible
    | Unbounded
    | Stalled

  type detail = {
    outcome : outcome;
    basis : int array;
    iterations : int;
    degenerate : int;
    bland_pivots : int;
    factorizations : int;
    eta_updates : int;
    refactorizations : int;
    fallbacks : int;
    repairs : int;
  }

  let exact = F.compare F.eps F.zero = 0 && F.compare F.rel_eps F.zero = 0

  (* Magnitude-relative thresholds on inexact fields; exact fields
     compare against [eps] = 0 without the rational multiply. *)
  let relative = not exact

  let tol_for mag = if relative then F.add F.eps (F.mul F.rel_eps mag) else F.eps

  type counters = {
    mutable iters : int;
    mutable degen : int;
    mutable bland : int;
    mutable factz : int;  (* LU factorizations *)
    mutable etaups : int;  (* product-form eta updates *)
    mutable refz : int;  (* refactorizations after the first *)
    mutable fallbacks : int;  (* restarts from the all-artificial basis *)
    mutable repairs : int;  (* basis positions replaced by LU repair *)
  }

  let fresh_counters () =
    { iters = 0; degen = 0; bland = 0; factz = 0; etaups = 0; refz = 0; fallbacks = 0; repairs = 0 }

  let detail_of counters ~basis outcome =
    {
      outcome;
      basis;
      iterations = counters.iters;
      degenerate = counters.degen;
      bland_pivots = counters.bland;
      factorizations = counters.factz;
      eta_updates = counters.etaups;
      refactorizations = counters.refz;
      fallbacks = counters.fallbacks;
      repairs = counters.repairs;
    }

  (* Largest power of two [2^-k] with [s * 2^-k] in [1, 2).  A power of
     two — rather than [1/s] itself, which rounds — keeps the scaling
     multiplications exact in binary floating point, so pivot decisions
     and the reported solution are genuinely unperturbed.  Inputs are
     finite and positive here ([check_finite] ran first), so [frexp] is
     total; the exponent clamp keeps the scale finite for subnormal
     magnitudes. *)
  let pow2_inv s =
    let _, e = Float.frexp (F.to_float s) in
    (* s = m * 2^e, m in [0.5, 1)  ->  s * 2^(1-e) = 2m in [1, 2) *)
    F.of_float (Float.ldexp 1.0 (Stdlib.min 1023 (1 - e)))

  (* A float pivot costs microseconds while the rational fallback a stall
     triggers costs orders of magnitude more, so the budget errs generous:
     it exists to bound genuinely cycling-adjacent runs, not to race
     honest degenerate plateaus (which can need thousands of Bland steps
     on heavily tied LPs). *)
  let default_budget ~rows ~cols =
    if exact then max_int else Stdlib.max 4_000 ((100 * rows) + (10 * cols))

  module Sp = Sparse.Make (F)
  module Lufac = Lu.Make (F)

  (* Numerical breakdown on the float path (a refactorisation found the
     basis singular after updates claimed it was fine): surrender to the
     typed [Stalled] outcome; certified callers re-solve exactly. *)
  exception Breakdown

  let eta_cap = 64

  (* Column ids: [0, ncols) structural, [ncols, ncols + dim) the
     artificials (unit columns, one per row), and [ncols + dim] the
     auxiliary column x0 of a phase 1 started from a primal-infeasible
     basis.  x0 is never priced and never handed back to the caller. *)
  type state = {
    dim : int;  (* constraint rows *)
    ncols : int;  (* structural columns *)
    amat : Sp.t;  (* scaled, sign-flipped structural matrix *)
    bvec : F.t array;  (* scaled, flipped rhs (componentwise >= 0) *)
    basis : int array;  (* basis position -> column id (-1: to be repaired) *)
    vpos : int array;  (* column id -> basis position, -1 if nonbasic *)
    xb : F.t array;  (* basic values, by basis position *)
    mutable fac : Lufac.t;
    weights : float array;
        (* Devex reference weights, machine floats even for exact fields:
           they only rank candidate columns, so their precision cannot
           affect correctness *)
    mutable x0_ind : int array;  (* x0's column, sparse, scaled frame *)
    mutable x0_val : F.t array;
    rhsbuf : F.t array;  (* row-space gather buffer *)
    wbuf : F.t array;  (* FTRAN image of the entering column *)
    ybuf : F.t array;  (* BTRAN duals *)
    cbuf : F.t array;  (* basic-cost gather *)
    rbuf : F.t array;  (* BTRAN pivot row *)
    ebuf : F.t array;  (* unit vector for the pivot-row BTRAN *)
    counters : counters;
    mutable eta_fill : int;  (* entries accumulated in the eta file *)
  }

  let[@inline] col_iter st j f =
    if j < st.ncols then Sp.iter_col st.amat j f
    else if j < st.ncols + st.dim then f (j - st.ncols) F.one
    else
      for k = 0 to Array.length st.x0_ind - 1 do
        f st.x0_ind.(k) st.x0_val.(k)
      done

  let refactorize st =
    (match Lufac.factorize ~dim:st.dim ~col:(col_iter st) ~basis:st.basis with
    | fac -> st.fac <- fac
    | exception Lu.Singular _ -> raise Breakdown);
    st.counters.factz <- st.counters.factz + 1;
    st.eta_fill <- 0;
    (* Recompute the basic solution from the fresh factors: the cheap
       incremental x_B updates drift, and this is the drift reset. *)
    Lufac.ftran st.fac ~rhs:st.bvec ~out:st.xb

  (* Absorb the exchange [basis.(pos) <- entering], whose FTRAN image is
     in [st.wbuf], into the factorisation — by eta when cheap and sound,
     by refactorisation otherwise. *)
  let absorb_exchange st ~pos =
    let fill =
      let c = ref 0 in
      for i = 0 to st.dim - 1 do
        if F.compare st.wbuf.(i) F.zero <> 0 then incr c
      done;
      !c
    in
    if
      Lufac.eta_count st.fac >= eta_cap
      || st.eta_fill + fill > 2 * Lufac.fill st.fac
      || not (Lufac.update st.fac ~w:st.wbuf ~pos)
    then begin
      if st.counters.factz > 0 then st.counters.refz <- st.counters.refz + 1;
      refactorize st
    end
    else begin
      st.counters.etaups <- st.counters.etaups + 1;
      st.eta_fill <- st.eta_fill + fill
    end

  (* One phase of the simplex.  [cost j] is the phase objective
     coefficient of column [j]; [eligible j] gates entering candidates;
     [rule] is the phase's pricing, which the stall detector swaps for
     Bland after [stall_k] pivots without progress and restores when the
     objective moves; [objective ()] evaluates the current phase
     objective for that detector. *)
  let iterate st ~cost ~eligible ~rule ~iter_budget ~stall_k ~objective =
    let dim = st.dim in
    let all_cols = st.ncols + dim in
    let mode = ref rule in
    let since_improve = ref 0 in
    let best_obj = ref (objective ()) in
    let rec loop () =
      if st.counters.iters >= iter_budget then `Stalled
      else begin
        (* Duals: y = B^-T c_B. *)
        for i = 0 to dim - 1 do
          st.cbuf.(i) <- cost st.basis.(i)
        done;
        Lufac.btran st.fac ~cvec:st.cbuf ~out:st.ybuf;
        (* Pricing sweep: d_j = c_j - y . A_j, tested against a tolerance
           relative to the magnitude of its own computation. *)
        let entering = ref (-1) in
        let best_score = ref 0.0 in
        let j = ref 0 in
        let continue_scan = ref true in
        while !continue_scan && !j < all_cols do
          let jj = !j in
          if st.vpos.(jj) < 0 && eligible jj then begin
            let d = ref (cost jj) in
            let mag = ref (F.abs !d) in
            col_iter st jj (fun r v ->
                let p = F.mul st.ybuf.(r) v in
                d := F.sub !d p;
                mag := F.add !mag (F.abs p));
            let tol = tol_for !mag in
            if F.compare !d (F.neg tol) < 0 then begin
              match !mode with
              | Bland ->
                entering := jj;
                continue_scan := false
              | Devex ->
                let df = F.to_float !d in
                let score = df *. df /. st.weights.(jj) in
                if score > !best_score then begin
                  best_score := score;
                  entering := jj
                end
            end
          end;
          incr j
        done;
        if !entering < 0 then `Optimal
        else begin
          let q = !entering in
          (* FTRAN: w = B^-1 A_q. *)
          Array.fill st.rhsbuf 0 dim F.zero;
          col_iter st q (fun r v -> st.rhsbuf.(r) <- v);
          Lufac.ftran st.fac ~rhs:st.rhsbuf ~out:st.wbuf;
          let wmax = ref F.zero in
          for i = 0 to dim - 1 do
            let v = F.abs st.wbuf.(i) in
            if F.compare v !wmax > 0 then wmax := v
          done;
          let wtol = tol_for !wmax in
          let neg_wtol = F.neg wtol in
          (* Ratio test.  Basic artificials already sitting at zero are
             additionally kicked out at a zero step whenever the entering
             column touches them with either sign, so they cannot drift
             away from zero in phase 2.  (The zero-value gate matters: a
             zero-step exchange of a basic variable carrying flow would
             silently break B x_B = b.) *)
          let zero_tol = tol_for (F.of_int (2 * dim)) in
          let leave = ref (-1) in
          let best_ratio = ref F.zero in
          for i = 0 to dim - 1 do
            let wi = st.wbuf.(i) in
            let art = st.basis.(i) >= st.ncols in
            let cand, ratio =
              if F.compare wi wtol > 0 then begin
                let num = st.xb.(i) in
                let r = if F.compare num F.zero <= 0 then F.zero else F.div num wi in
                (true, r)
              end
              else if
                art
                && F.compare wi neg_wtol < 0
                && F.compare (F.abs st.xb.(i)) zero_tol <= 0
              then (true, F.zero)
              else (false, F.zero)
            in
            if cand then begin
              let better =
                !leave < 0
                ||
                let cr = F.compare ratio !best_ratio in
                cr < 0
                || cr = 0
                   &&
                   (match !mode with
                   | Bland -> st.basis.(i) < st.basis.(!leave)
                   | Devex ->
                     (* Among ratio ties, take the numerically largest
                        pivot element — the stable choice. *)
                     F.compare (F.abs wi) (F.abs st.wbuf.(!leave)) > 0)
              in
              if better then begin
                leave := i;
                best_ratio := ratio
              end
            end
          done;
          if !leave < 0 then `Unbounded
          else begin
            let pos = !leave in
            let theta = !best_ratio in
            let piv = st.wbuf.(pos) in
            let lcol = st.basis.(pos) in
            (* Devex weight update needs the pivot row of the *old* basis:
               alpha = (B^-T e_pos)^T A, one extra BTRAN + sweep. *)
            (match !mode with
            | Bland -> ()
            | Devex ->
              Array.fill st.ebuf 0 dim F.zero;
              st.ebuf.(pos) <- F.one;
              Lufac.btran st.fac ~cvec:st.ebuf ~out:st.rbuf;
              let gamma = Float.max st.weights.(q) 1.0 in
              let pf = F.to_float piv in
              let overflow = ref false in
              for jj = 0 to all_cols - 1 do
                if jj <> q && st.vpos.(jj) < 0 && eligible jj then begin
                  let alpha = ref F.zero in
                  col_iter st jj (fun r v -> alpha := F.add !alpha (F.mul st.rbuf.(r) v));
                  let af = F.to_float !alpha /. pf in
                  if af <> 0.0 then begin
                    let cand = af *. af *. gamma in
                    if cand > st.weights.(jj) then st.weights.(jj) <- cand;
                    if st.weights.(jj) > 1e12 then overflow := true
                  end
                end
              done;
              st.weights.(lcol) <- Float.max (gamma /. (pf *. pf)) 1.0;
              if !overflow then Array.fill st.weights 0 all_cols 1.0);
            (* Apply the step to the basic solution and swap the basis. *)
            if F.compare theta F.zero <> 0 then
              for i = 0 to dim - 1 do
                if F.compare st.wbuf.(i) F.zero <> 0 then
                  st.xb.(i) <- F.sub st.xb.(i) (F.mul theta st.wbuf.(i))
              done;
            st.xb.(pos) <- theta;
            st.basis.(pos) <- q;
            st.vpos.(lcol) <- -1;
            st.vpos.(q) <- pos;
            absorb_exchange st ~pos;
            st.counters.iters <- st.counters.iters + 1;
            (match !mode with
            | Bland -> st.counters.bland <- st.counters.bland + 1
            | Devex -> ());
            let obj = objective () in
            let itol = tol_for (F.abs !best_obj) in
            if F.compare obj (F.sub !best_obj itol) < 0 then begin
              best_obj := obj;
              since_improve := 0;
              mode := rule
            end
            else begin
              incr since_improve;
              st.counters.degen <- st.counters.degen + 1;
              (* No objective progress over a whole window of pivots:
                 assume degenerate cycling territory and switch to
                 Bland's rule, whose termination proof needs no
                 tolerance assumptions. *)
              if !since_improve >= stall_k then mode := Bland
            end;
            loop ()
          end
        end
      end
    in
    loop ()

  (* Reject NaN/infinite coefficients up front: they would otherwise make
     the row equilibration pick a meaningless scale and poison every
     tolerance after it.  The scan runs matrix (column by column), then
     rhs, then objective, and reports the first offender.  Exact fields
     are always finite; the scan is skipped. *)
  let check_finite ~(a : Sp.t) ~b ~c =
    if not exact then begin
      let n = Sp.cols a in
      for j = 0 to n - 1 do
        Sp.iter_col a j (fun i v ->
            if not (F.is_finite v) then raise (Non_finite { row = i; col = j }))
      done;
      Array.iteri
        (fun i v -> if not (F.is_finite v) then raise (Non_finite { row = i; col = n }))
        b;
      Array.iteri
        (fun j v -> if not (F.is_finite v) then raise (Non_finite { row = -1; col = j }))
        c
    end

  (* Scale + flip the input into the internal standard form shared by the
     cold and warm sparse entry points: rows equilibrated by powers of
     two, negative-rhs rows negated, artificials implicit, the
     all-artificial basis installed. *)
  let make_state ~(a : Sp.t) ~b =
    let rows = Sp.rows a in
    let n = Sp.cols a in
    let abs v = if F.compare v F.zero < 0 then F.neg v else v in
    let rowmax = Array.make rows F.zero in
    if not exact then begin
      Array.iteri (fun i bi -> rowmax.(i) <- abs bi) b;
      Array.iteri
        (fun k v ->
          let r = a.Sparse.rowind.(k) in
          let m = abs v in
          if F.compare m rowmax.(r) > 0 then rowmax.(r) <- m)
        a.Sparse.values
    end;
    let scale =
      Array.init rows (fun i ->
          if exact then F.one
          else if F.compare rowmax.(i) F.zero > 0 then pow2_inv rowmax.(i)
          else F.one)
    in
    let flip = Array.init rows (fun i -> F.compare b.(i) F.zero < 0) in
    let values =
      Array.mapi
        (fun k v ->
          let r = a.Sparse.rowind.(k) in
          let v = F.mul scale.(r) v in
          if flip.(r) then F.neg v else v)
        a.Sparse.values
    in
    let amat = { a with Sparse.values = values } in
    let bvec =
      Array.init rows (fun i ->
          let v = F.mul scale.(i) b.(i) in
          if flip.(i) then F.neg v else v)
    in
    let all_cols = n + rows + 1 in
    {
      dim = rows;
      ncols = n;
      amat;
      bvec;
      basis = Array.init rows (fun i -> n + i);
      vpos = Array.make all_cols (-1);  (* filled by [factorize_start] *)
      xb = Array.copy bvec;
      fac = Lufac.factorize ~dim:0 ~col:(fun _ _ -> ()) ~basis:[||];
      weights = Array.make all_cols 1.0;
      x0_ind = [||];
      x0_val = [||];
      rhsbuf = Array.make rows F.zero;
      wbuf = Array.make rows F.zero;
      ybuf = Array.make rows F.zero;
      cbuf = Array.make rows F.zero;
      rbuf = Array.make rows F.zero;
      ebuf = Array.make rows F.zero;
      counters = fresh_counters ();
      eta_fill = 0;
    }

  (* The reported basis never names x0: a solve that stops with x0 still
     basic (a phase-1 stall or breakdown) reports the lowest nonbasic
     artificial in its place, which a later warm start repairs if need
     be. *)
  let finish st outcome =
    let basis = Array.copy st.basis in
    let x0 = st.ncols + st.dim in
    if st.vpos.(x0) >= 0 then begin
      let r = ref 0 in
      while st.vpos.(st.ncols + !r) >= 0 do
        incr r
      done;
      basis.(st.vpos.(x0)) <- st.ncols + !r
    end;
    detail_of st.counters ~basis outcome

  let phase2_cost st c j = if j < st.ncols then c.(j) else F.zero

  let phase2_objective st c () =
    let s = ref F.zero in
    for i = 0 to st.dim - 1 do
      let bj = st.basis.(i) in
      if bj < st.ncols then s := F.add !s (F.mul c.(bj) st.xb.(i))
    done;
    !s

  let extract_solution st c =
    let x = Array.make st.ncols F.zero in
    for i = 0 to st.dim - 1 do
      let bj = st.basis.(i) in
      if bj < st.ncols then x.(bj) <- st.xb.(i)
    done;
    (x, phase2_objective st c ())

  (* Pivot any artificial still basic after phase 1 out of the basis:
     BTRAN its unit vector to get the pivot row, take the first
     structural nonbasic column with a usable entry, and exchange at a
     zero step.  Rows with no such entry are redundant; their artificial
     stays basic at zero, barred from entering and kicked out by the
     ratio test if an entering column ever touches the row.  x0 always
     leaves: failing a structural column, a nonbasic artificial takes
     its place (the pivot row of a nonsingular basis is nonzero on some
     row, and that row's artificial cannot be basic elsewhere). *)
  let drive_out_artificials st =
    let x0 = st.ncols + st.dim in
    for i = 0 to st.dim - 1 do
      if st.basis.(i) >= st.ncols then begin
        Array.fill st.ebuf 0 st.dim F.zero;
        st.ebuf.(i) <- F.one;
        Lufac.btran st.fac ~cvec:st.ebuf ~out:st.rbuf;
        let found = ref (-1) in
        let fval = ref F.zero in
        let j = ref 0 in
        let last = if st.basis.(i) = x0 then x0 else st.ncols in
        while !found < 0 && !j < last do
          let jj = !j in
          if st.vpos.(jj) < 0 then begin
            let alpha = ref F.zero in
            let mag = ref F.zero in
            col_iter st jj (fun r v ->
                let p = F.mul st.rbuf.(r) v in
                alpha := F.add !alpha p;
                mag := F.add !mag (F.abs p));
            let tol = tol_for !mag in
            if F.compare (F.abs !alpha) tol > 0 then begin
              found := jj;
              fval := !alpha
            end
          end;
          incr j
        done;
        if !found >= 0 then begin
          let q = !found in
          Array.fill st.rhsbuf 0 st.dim F.zero;
          col_iter st q (fun r v -> st.rhsbuf.(r) <- v);
          Lufac.ftran st.fac ~rhs:st.rhsbuf ~out:st.wbuf;
          (* The artificial sits at (numerical) zero, so the step is a
             degenerate exchange: x_B is unchanged except at [i]. *)
          let lcol = st.basis.(i) in
          st.xb.(i) <- F.zero;
          st.basis.(i) <- q;
          st.vpos.(lcol) <- -1;
          st.vpos.(q) <- i;
          absorb_exchange st ~pos:i
        end
      end
    done

  (* Factorise whatever basis [st] holds in repair mode — a singular,
     duplicate or missing (-1) position takes the artificial of the
     lowest uncovered row — and recompute x_B = B^-1 b. *)
  let factorize_start st =
    st.fac <-
      Lufac.factorize_repair ~dim:st.dim
        ~col:(fun j f -> if j >= 0 then col_iter st j f)
        ~basis:st.basis
        ~repair:(fun ~pos ~row ->
          st.basis.(pos) <- st.ncols + row;
          st.counters.repairs <- st.counters.repairs + 1);
    st.counters.factz <- st.counters.factz + 1;
    st.eta_fill <- 0;
    Array.fill st.vpos 0 (Array.length st.vpos) (-1);
    Array.iteri (fun i j -> st.vpos.(j) <- i) st.basis;
    Lufac.ftran st.fac ~rhs:st.bvec ~out:st.xb

  (* Chvátal's single-artificial start for a primal-infeasible basis:
     x0 = -(sum of the basic columns at negative positions) has FTRAN
     image -1 at exactly those positions, so entering it at the most
     negative position [row], at step -x_B(row), lifts every negative
     basic value to >= 0 in one exchange. *)
  let enter_x0 st ~row =
    let dim = st.dim in
    Array.fill st.rhsbuf 0 dim F.zero;
    for i = 0 to dim - 1 do
      if F.compare st.xb.(i) F.zero < 0 then
        col_iter st st.basis.(i) (fun r v -> st.rhsbuf.(r) <- F.sub st.rhsbuf.(r) v)
    done;
    let nz = ref [] in
    for r = dim - 1 downto 0 do
      if F.compare st.rhsbuf.(r) F.zero <> 0 then nz := r :: !nz
    done;
    st.x0_ind <- Array.of_list !nz;
    st.x0_val <- Array.map (fun r -> st.rhsbuf.(r)) st.x0_ind;
    Lufac.ftran st.fac ~rhs:st.rhsbuf ~out:st.wbuf;
    let theta = F.div st.xb.(row) st.wbuf.(row) in
    for i = 0 to dim - 1 do
      if F.compare st.wbuf.(i) F.zero <> 0 then
        st.xb.(i) <- F.sub st.xb.(i) (F.mul theta st.wbuf.(i))
    done;
    st.xb.(row) <- theta;
    let x0 = st.ncols + dim in
    st.vpos.(st.basis.(row)) <- -1;
    st.basis.(row) <- x0;
    st.vpos.(x0) <- row;
    absorb_exchange st ~pos:row;
    st.counters.iters <- st.counters.iters + 1

  (* The one phase-1/phase-2 routine behind the cold and the warm entry
     points, started from whatever basis [st] holds (the all-artificial
     one for a cold solve).  Phase 1 runs only when that basis is not
     primal feasible: some basic value below -tol (x0 enters first) or a
     basic artificial above tol; it minimizes the artificials plus x0.
     [phase1] and [phase2] are the phases' pricing rules.
     @raise Breakdown on a numerical breakdown. *)
  let run st ~c ~phase1 ~phase2 ~iter_budget ~stall_k =
    let n = st.ncols in
    factorize_start st;
    let tol = tol_for (F.of_int (2 * st.dim)) in
    let neg_tol = F.neg tol in
    let worst = ref (-1) and infeasible = ref false in
    for i = 0 to st.dim - 1 do
      let v = st.xb.(i) in
      if F.compare v neg_tol < 0 then begin
        infeasible := true;
        if !worst < 0 || F.compare v st.xb.(!worst) < 0 then worst := i
      end
      else if st.basis.(i) >= n && F.compare v tol > 0 then infeasible := true
    done;
    let run_phase2 () =
      match
        iterate st ~cost:(phase2_cost st c)
          ~eligible:(fun j -> j < n)
          ~rule:phase2 ~iter_budget ~stall_k
          ~objective:(phase2_objective st c)
      with
      | `Stalled -> finish st Stalled
      | `Unbounded -> finish st Unbounded
      | `Optimal ->
        let x, obj = extract_solution st c in
        finish st (Optimal (x, obj))
    in
    if not !infeasible then run_phase2 ()
    else begin
      if !worst >= 0 then enter_x0 st ~row:!worst;
      let cost1 j = if j >= n then F.one else F.zero in
      let objective1 () =
        let s = ref F.zero in
        for i = 0 to st.dim - 1 do
          if st.basis.(i) >= n then s := F.add !s st.xb.(i)
        done;
        !s
      in
      match
        iterate st ~cost:cost1
          ~eligible:(fun _ -> true)
          ~rule:phase1 ~iter_budget ~stall_k ~objective:objective1
      with
      | `Stalled -> finish st Stalled
      | `Unbounded ->
        (* Phase 1 is bounded below by 0, so a genuine ray cannot
           exist: reaching here means the thresholds lied — an
           "improving" column with no pivotable entry.  Report the
           system as infeasible-at-this-precision; certified callers
           re-solve exactly. *)
        finish st Infeasible
      | `Optimal ->
        if F.compare (objective1 ()) tol > 0 then finish st Infeasible
        else begin
          drive_out_artificials st;
          Array.fill st.weights 0 (Array.length st.weights) 1.0;
          run_phase2 ()
        end
    end

  let check_sparse ~(a : Sp.t) ~b ~c =
    if Array.length b <> Sp.rows a then invalid_arg "Simplex.solve_sparse: b length mismatch";
    if Array.length c <> Sp.cols a then invalid_arg "Simplex.solve_sparse: c length mismatch";
    check_finite ~a ~b ~c

  let budget_or iter_budget st =
    match iter_budget with
    | Some k -> k
    | None -> default_budget ~rows:st.dim ~cols:(st.ncols + st.dim)

  (* No constraints: minimum is at the origin unless some cost is
     negative, in which case that coordinate runs off to infinity. *)
  let solve_unconstrained ~c =
    let outcome =
      if Array.exists (fun x -> F.compare x (F.neg F.eps) < 0) c then Unbounded
      else Optimal (Array.make (Array.length c) F.zero, F.zero)
    in
    detail_of (fresh_counters ()) ~basis:[||] outcome

  let solve_sparse_detailed ?iter_budget ~(a : Sp.t) ~b ~c () =
    check_sparse ~a ~b ~c;
    if Sp.rows a = 0 then solve_unconstrained ~c
    else begin
      let st = make_state ~a ~b in
      match
        run st ~c ~phase1:Devex ~phase2:Devex ~iter_budget:(budget_or iter_budget st)
          ~stall_k:(Stdlib.max 32 st.dim)
      with
      | d -> d
      | exception Breakdown -> finish st Stalled
    end

  let solve_sparse ~a ~b ~c = (solve_sparse_detailed ~a ~b ~c ()).outcome

  (* Warm start on the sparse path: install the proposed basis as given
     — out-of-range or repeated ids, and positions past its end, left
     empty for the start factorization to repair; surplus entries
     dropped — and run the shared [run] from it.  Phase 1 from a stale
     basis is a real search, which Devex steers in fewer pivots; phase 2
     from a warm basis is typically a handful of pivots, where Bland's
     first-candidate scan is cheapest (and, on the exact instance,
     skips Devex's extra rational BTRAN per pivot).  Only a numerical
     breakdown restarts, cold, from the all-artificial basis (counted in
     [fallbacks]), so the result is always as trustworthy as
     [solve_sparse]. *)
  let solve_sparse_from_basis ?iter_budget ~(a : Sp.t) ~b ~c ~basis:proposed () =
    check_sparse ~a ~b ~c;
    if Sp.rows a = 0 then solve_unconstrained ~c
    else begin
      let st = make_state ~a ~b in
      let ids = st.ncols + st.dim in
      for i = 0 to st.dim - 1 do
        let j = if i < Array.length proposed then proposed.(i) else -1 in
        if j >= 0 && j < ids && st.vpos.(j) < 0 then begin
          st.basis.(i) <- j;
          st.vpos.(j) <- i
        end
        else st.basis.(i) <- -1
      done;
      let iter_budget = budget_or iter_budget st in
      let stall_k = Stdlib.max 32 st.dim in
      match run st ~c ~phase1:Devex ~phase2:Bland ~iter_budget ~stall_k with
      | d -> d
      | exception Breakdown -> (
        st.counters.fallbacks <- st.counters.fallbacks + 1;
        for i = 0 to st.dim - 1 do
          st.basis.(i) <- st.ncols + i
        done;
        Array.fill st.weights 0 (Array.length st.weights) 1.0;
        match
          run st ~c ~phase1:Devex ~phase2:Devex ~iter_budget:(iter_budget + st.counters.iters)
            ~stall_k
        with
        | d -> d
        | exception Breakdown -> finish st Stalled)
    end

  (* Dense-input entry points: check the shape, then hand the CSC copy to
     the sparse ones.  [Sp.of_dense] drops only entries comparing equal
     to zero, so NaN and infinities reach the sparse finite scan. *)
  let sparse_of_dense ~a ~b ~c =
    let n = Array.length c in
    if Array.length b <> Array.length a then invalid_arg "Simplex.solve: b length mismatch";
    Array.iter
      (fun row -> if Array.length row <> n then invalid_arg "Simplex.solve: ragged matrix")
      a;
    Sp.of_dense a ~cols:n

  let solve_detailed ?iter_budget ~a ~b ~c () =
    solve_sparse_detailed ?iter_budget ~a:(sparse_of_dense ~a ~b ~c) ~b ~c ()

  let solve ~a ~b ~c = (solve_detailed ~a ~b ~c ()).outcome

  let solve_from_basis ?iter_budget ~a ~b ~c ~basis () =
    solve_sparse_from_basis ?iter_budget ~a:(sparse_of_dense ~a ~b ~c) ~b ~c ~basis ()
end

module Float_solver = Make (Mf_numeric.Ordered_field.Float_field)
module Rat_solver = Make (Mf_numeric.Ordered_field.Rat_field)
