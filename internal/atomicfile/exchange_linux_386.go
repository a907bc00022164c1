package atomicfile

// sysRenameat2 is renameat2's number on linux/386, which the syscall
// package does not name.
const sysRenameat2 = 353
