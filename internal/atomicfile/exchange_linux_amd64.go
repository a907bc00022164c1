package atomicfile

// sysRenameat2 is renameat2's number on linux/amd64, which the syscall
// package does not name.
const sysRenameat2 = 316
