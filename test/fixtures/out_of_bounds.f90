! A 2-D copy whose one read, u(i, j+400), lands far outside the 66x66
! grid. Every execution engine must report the overrun as an error
! (interp, and the closure fallback behind vector and native, through
! Bigarray's checked accesses) rather than read or write past the
! buffer.
program out_of_bounds
  implicit none
  integer, parameter :: n = 64
  integer :: i, j
  real(kind=8), dimension(0:n+1, 0:n+1) :: u, v

  do j = 0, n + 1
    do i = 0, n + 1
      u(i, j) = dble(i)
      v(i, j) = 0.0d0
    end do
  end do

  do j = 1, n
    do i = 1, n
      v(i, j) = u(i, j+400)
    end do
  end do
end program out_of_bounds
