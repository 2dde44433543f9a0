package bytecode

// Steps returns the total operations executed so far.
func (vm *VM) Steps() int64 { return vm.steps }

// AllocBytes returns the total data bytes held: global storage plus every
// malloc, matching the interpreter's byte-budget accounting.
func (vm *VM) AllocBytes() int64 { return vm.allocBytes }
