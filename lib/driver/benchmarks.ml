(* The two benchmark codes of the paper's evaluation (Section 4.1), as
   Fortran source generators.

   Gauss-Seidel: LaPlace diffusion in 3-D, 7-point stencil averaging the
   six orthogonal neighbours (6 flops/cell), iterative with an outer time
   loop. Written as a two-array sweep + copy-back so that the serial FIR
   execution and the (value-semantics) stencil execution are numerically
   identical — stencil.apply always reads a snapshot, so a literal
   in-place Gauss-Seidel would change numerics under extraction.

   PW advection: the Piacsek-Williams advection scheme from the MONC
   atmospheric model — three separate stencil computations over three
   velocity fields (u, v, w -> su, sv, sw, ~63 flops/cell) which the
   merge pass fuses into a single stencil region, exactly the fusion the
   paper reports. *)

let gauss_seidel ?(nx = 16) ?(ny = 16) ?(nz = 16) ?(niter = 4) () =
  Printf.sprintf
    {|
program gauss_seidel
  implicit none
  integer, parameter :: nx = %d, ny = %d, nz = %d, niter = %d
  integer :: i, j, k, iter
  real(kind=8), dimension(0:nx+1, 0:ny+1, 0:nz+1) :: u, unew

  ! initial condition: smooth non-harmonic field (quadratic + cross
  ! term, so the sweep does real work and index mistakes cannot cancel);
  ! the boundary stays fixed as a Dirichlet condition
  do k = 0, nz + 1
    do j = 0, ny + 1
      do i = 0, nx + 1
        u(i, j, k) = 0.01d0 * dble(i) * dble(i) &
                   + 0.02d0 * dble(j) * dble(k) + 0.03d0 * dble(k)
        unew(i, j, k) = 0.0d0
      end do
    end do
  end do

  do iter = 1, niter
    do k = 1, nz
      do j = 1, ny
        do i = 1, nx
          unew(i, j, k) = (u(i-1, j, k) + u(i+1, j, k) + u(i, j-1, k) &
                        + u(i, j+1, k) + u(i, j, k-1) + u(i, j, k+1)) / 6.0d0
        end do
      end do
    end do
    do k = 1, nz
      do j = 1, ny
        do i = 1, nx
          u(i, j, k) = unew(i, j, k)
        end do
      end do
    end do
  end do
end program gauss_seidel
|}
    nx ny nz niter

let pw_advection ?(nx = 16) ?(ny = 16) ?(nz = 16) ?(niter = 4) () =
  Printf.sprintf
    {|
program pw_advection
  implicit none
  integer, parameter :: nx = %d, ny = %d, nz = %d, niter = %d
  integer :: i, j, k, iter
  real(kind=8) :: rdx, rdy, rdz
  real(kind=8), dimension(0:nx+1, 0:ny+1, 0:nz+1) :: u, v, w, su, sv, sw

  rdx = 0.1d0
  rdy = 0.2d0
  rdz = 0.3d0

  do k = 0, nz + 1
    do j = 0, ny + 1
      do i = 0, nx + 1
        u(i, j, k) = 0.01d0 * dble(i) + 0.02d0 * dble(j) + 0.03d0 * dble(k)
        v(i, j, k) = 0.03d0 * dble(i) + 0.01d0 * dble(j) + 0.02d0 * dble(k)
        w(i, j, k) = 0.02d0 * dble(i) + 0.03d0 * dble(j) + 0.01d0 * dble(k)
        su(i, j, k) = 0.0d0
        sv(i, j, k) = 0.0d0
        sw(i, j, k) = 0.0d0
      end do
    end do
  end do

  do iter = 1, niter
    do k = 1, nz
      do j = 1, ny
        do i = 1, nx
          su(i, j, k) = 0.5d0 * rdx * (u(i-1, j, k) * (u(i, j, k) + u(i-1, j, k)) &
                      - u(i+1, j, k) * (u(i, j, k) + u(i+1, j, k))) &
                      + 0.5d0 * rdy * (v(i, j-1, k) * (u(i, j, k) + u(i, j-1, k)) &
                      - v(i, j+1, k) * (u(i, j, k) + u(i, j+1, k))) &
                      + 0.5d0 * rdz * (w(i, j, k-1) * (u(i, j, k) + u(i, j, k-1)) &
                      - w(i, j, k+1) * (u(i, j, k) + u(i, j, k+1)))
        end do
      end do
    end do
    do k = 1, nz
      do j = 1, ny
        do i = 1, nx
          sv(i, j, k) = 0.5d0 * rdx * (u(i-1, j, k) * (v(i, j, k) + v(i-1, j, k)) &
                      - u(i+1, j, k) * (v(i, j, k) + v(i+1, j, k))) &
                      + 0.5d0 * rdy * (v(i, j-1, k) * (v(i, j, k) + v(i, j-1, k)) &
                      - v(i, j+1, k) * (v(i, j, k) + v(i, j+1, k))) &
                      + 0.5d0 * rdz * (w(i, j, k-1) * (v(i, j, k) + v(i, j, k-1)) &
                      - w(i, j, k+1) * (v(i, j, k) + v(i, j, k+1)))
        end do
      end do
    end do
    do k = 1, nz
      do j = 1, ny
        do i = 1, nx
          sw(i, j, k) = 0.5d0 * rdx * (u(i-1, j, k) * (w(i, j, k) + w(i-1, j, k)) &
                      - u(i+1, j, k) * (w(i, j, k) + w(i+1, j, k))) &
                      + 0.5d0 * rdy * (v(i, j-1, k) * (w(i, j, k) + w(i, j-1, k)) &
                      - v(i, j+1, k) * (w(i, j, k) + w(i, j+1, k))) &
                      + 0.5d0 * rdz * (w(i, j, k-1) * (w(i, j, k) + w(i, j, k-1)) &
                      - w(i, j, k+1) * (w(i, j, k) + w(i, j, k+1)))
        end do
      end do
    end do
  end do
end program pw_advection
|}
    nx ny nz niter

(* 2-D Laplace (5-point Jacobi): the long-innermost-row benchmark. One
   sweep reads four neighbours into phinew, one copies back — the shape
   the row-vectorised engine's fused weighted-sum path targets, with
   rows long enough that per-row dispatch overhead amortises away. *)
let laplace ?(n = 64) ?(niter = 4) () =
  Printf.sprintf
    {|
program laplace
  implicit none
  integer, parameter :: n = %d, niter = %d
  integer :: i, j, iter
  real(kind=8), dimension(0:n+1, 0:n+1) :: phi, phinew

  do j = 0, n + 1
    do i = 0, n + 1
      phi(i, j) = 0.01d0 * dble(i) * dble(i) + 0.02d0 * dble(i) * dble(j)
      phinew(i, j) = 0.0d0
    end do
  end do

  do iter = 1, niter
    do j = 1, n
      do i = 1, n
        phinew(i, j) = 0.25d0 * (phi(i-1, j) + phi(i+1, j) &
                     + phi(i, j-1) + phi(i, j+1))
      end do
    end do
    do j = 1, n
      do i = 1, n
        phi(i, j) = phinew(i, j)
      end do
    end do
  end do
end program laplace
|}
    n niter

(* Residual evaluation plus a boundary-edge probe (the inline twin of
   examples/residual.f90): the probe nest writes u every iteration, but
   only along the global j = k = 1 edge — a plane the affine write
   footprint proves is never a mirrored block boundary — so footprint
   staling pays for u's first halo exchange only, where whole-field
   staling would re-exchange every superstep. The benchmark program for
   the footprint-staling gate in BENCH_dmp.json. *)
let residual ?(nx = 12) ?(ny = 12) ?(nz = 12) ?(niter = 3) () =
  Printf.sprintf
    {|
program residual_probe
  implicit none
  integer, parameter :: nx = %d, ny = %d, nz = %d, niter = %d
  integer :: i, j, k, iter
  real(kind=8), dimension(0:nx+1, 0:ny+1, 0:nz+1) :: u, r

  do k = 0, nz + 1
    do j = 0, ny + 1
      do i = 0, nx + 1
        u(i, j, k) = 0.01d0 * dble(i) * dble(i) &
                   + 0.02d0 * dble(j) * dble(k) + 0.03d0 * dble(k)
        r(i, j, k) = 0.0d0
      end do
    end do
  end do

  do iter = 1, niter
    do k = 1, nz
      do j = 1, ny
        do i = 1, nx
          r(i, j, k) = u(i, j, k) - (u(i-1, j, k) + u(i+1, j, k) &
                     + u(i, j-1, k) + u(i, j+1, k) + u(i, j, k-1) &
                     + u(i, j, k+1)) / 6.0d0
        end do
      end do
    end do
    do k = 1, 1
      do j = 1, 1
        do i = 1, nx
          u(i, j, k) = u(i, j, k) + 0.25d0 * r(i, j, k)
        end do
      end do
    end do
  end do
end program residual_probe
|}
    nx ny nz niter

(* Smoothing with relaxation: a 6-point average into rs, then a
   cell-wise blend d = 0.25*rs + 0.75*u. The blend reads rs through the
   identity index — the shape the native emitter's aligned cross-nest
   fusion accepts (every shared cell produced before consumed in the
   fused body), unlike the sweep/copy-back pairs above which need the
   shifted schedule. The benchmark program for the aligned-fusion gate
   in BENCH_kernels.json's scheduling section. *)
let smooth ?(nx = 16) ?(ny = 16) ?(nz = 16) ?(niter = 4) () =
  Printf.sprintf
    {|
program smooth
  implicit none
  integer, parameter :: nx = %d, ny = %d, nz = %d, niter = %d
  integer :: i, j, k, iter
  real(kind=8), dimension(0:nx+1, 0:ny+1, 0:nz+1) :: u, rs, d

  do k = 0, nz + 1
    do j = 0, ny + 1
      do i = 0, nx + 1
        u(i, j, k) = 0.01d0 * dble(i) * dble(i) &
                   + 0.02d0 * dble(j) * dble(k) + 0.03d0 * dble(k)
        rs(i, j, k) = 0.0d0
        d(i, j, k) = 0.0d0
      end do
    end do
  end do

  do iter = 1, niter
    do k = 1, nz
      do j = 1, ny
        do i = 1, nx
          rs(i, j, k) = (u(i-1, j, k) + u(i+1, j, k) + u(i, j-1, k) &
                      + u(i, j+1, k) + u(i, j, k-1) + u(i, j, k+1)) / 6.0d0
        end do
      end do
    end do
    do k = 1, nz
      do j = 1, ny
        do i = 1, nx
          d(i, j, k) = 0.25d0 * rs(i, j, k) + 0.75d0 * u(i, j, k)
        end do
      end do
    end do
  end do
end program smooth
|}
    nx ny nz niter

(* The paper's Listing 1: 2-D neighbour averaging. *)
let listing1 ?(n = 256) () =
  Printf.sprintf
    {|
program average
  implicit none
  integer, parameter :: n = %d
  integer :: i, j
  real(kind=8), dimension(0:n, 0:n) :: data, result

  do i = 1, n - 1
    do j = 1, n - 1
      result(j, i) = 0.25 * (data(j, i - 1) + data(j, i + 1) &
                   + data(j - 1, i) + data(j + 1, i))
    end do
  end do
end program average
|}
    n
