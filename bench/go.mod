// The benchmark is its own module so it builds from this directory
// alone; its import path sits under bftbcast/ so it may import the
// library's internal packages through the replace below.
module bftbcast/bench

go 1.24

require bftbcast v0.0.0

replace bftbcast => ../
