module cole/benchmark

go 1.22

require cole v0.0.0

replace cole => ../
