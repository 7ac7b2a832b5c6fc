! Repeated residual evaluation plus a boundary-edge probe — the
! smallest program where footprint-aware halo staling beats whole-field
! staling: the probe nest writes u every iteration, but only along the
! global edge j = k = 1, a plane the affine write footprint proves is
! never a block-boundary (mirrored) plane under any decomposition. So
! whole-field staling re-exchanges u's halos every superstep while
! footprint staling pays for the first exchange only.
!
!   dune exec bin/sfc.exe -- run examples/residual.f90 \
!     --target dist --ranks 4 --stats
!
! (it prints 8 halo messages at 4 ranks: one exchange, whatever niter is)
program residual_probe
  implicit none
  integer, parameter :: nx = 12, ny = 12, nz = 12, niter = 3
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
    ! edge probe: accumulate the residual into u along the j = k = 1
    ! edge only — an interior-boundary write whose footprint never
    ! reaches a mirrored plane
    do k = 1, 1
      do j = 1, 1
        do i = 1, nx
          u(i, j, k) = u(i, j, k) + 0.25d0 * r(i, j, k)
        end do
      end do
    end do
  end do
end program residual_probe
