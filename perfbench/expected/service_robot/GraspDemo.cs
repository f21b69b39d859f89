//Generated sequence GraspDemo
using RobotRuntime;

var arm = runtime.Attach("Manipulator");
var base = runtime.Attach("DriveBase");
var hand = runtime.Attach("Gripper");
declareVariable("armStatus", "String");
declareVariable("orientation", "Vector3");
declareVariable("shelfPose", "Vector3");
declareVariable("targetPose", "Vector3");

//Create list of parameters
parameters = new List<ParameterVariable>();
parameters.Add(getVariable("shelfPose"));
ExecutionElement MoveBase =
	new ExecElement(MOVE_TO, parameters));
//Create list of parameters
parameters = new List<ParameterVariable>();
//fill list of parameters 
//Add previous initialized variables
parameters.Add(getVariable("targetPose"));
//Add previous initialized variables
parameters.Add(getVariable("orientation"));
//Create robot specific action
ExecutionElement MoveMani = 
	new ExecElement(MOVE_MANIPULATOR, parameters));
ExecutionElement Grab =
	new ExecElement(CLOSE_GRIPPER, new List<ParameterVariable>());
runSequence();
